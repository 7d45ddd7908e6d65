"""Sweep harness: run every theorem oracle over a corpus and aggregate.

The sweep distinguishes two kinds of checks.  Universal oracles are
statements that must hold on every instance; any failure is counted in
``tallies`` and makes the sweep exit nonzero.  Observations are
recorded claims that are known to fail on honest instances (the
image-versus-kernel-up-set comparison for arbitrary surjections and the
ideal-up-set form of the quotient embedding); their violations are
reported with witnesses but do not fail the sweep.

Reports are deterministic: corpus order is fixed, every collection is
sorted, and wall-clock time goes to stderr instead of the report, so two
runs (with any worker count) produce byte-identical JSON.
"""

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .catalog import builtin_catalog
from .enumeration import enumerate_semirings
from .errors import EmptyFamily, HypothesisUnmet, NoUnitDecomposition, ParseError
from .ideals import (
    _ideal_masks_all,
    all_ideals,
    classified_ideals,
    generated_ideal,
    ideal_from_mask,
    intersect_ideals,
    product_ideals,
    radical,
    radical_via_primes,
    sum_ideals,
)
from .morphisms import (
    check_contraction,
    check_density,
    check_quotient_homeomorphism,
    enumerate_homomorphisms,
    induced_map,
    kernel,
)
from .semiring import bourne_quotient
from .serialize import semiring_from_json, semiring_to_json
from .topology import (
    CLASS_TAGS,
    check_connected,
    check_irreducible_upsets,
    check_quasi_compact,
    check_sober,
    check_t0,
    check_t1,
    closed_family,
    idempotent_from_disconnection,
    spectrum,
    strong_disconnection_witness,
    up_set,
    verify_upset_laws,
)

DEFAULT_CLASSES = list(CLASS_TAGS)
WITNESS_CAP = 10


def topology_instance_report(s, cls):
    """The per-(semiring, class) topology report."""
    spec = spectrum(s, cls)
    t0 = check_t0(s, spec)
    t1 = check_t1(s, spec)
    sober = check_sober(s, spec)
    connected = check_connected(s, spec)
    irr = check_irreducible_upsets(s, spec)
    laws = verify_upset_laws(s, spec)
    qc = check_quasi_compact(s, spec)

    witness = strong_disconnection_witness(s, spec)
    witness_json = None
    idempotent = None
    status = "no-witness"
    if witness is not None:
        left, right = witness
        witness_json = {
            "left": [list(a.members) for a in left],
            "right": [list(b.members) for b in right],
        }
        try:
            idempotent = idempotent_from_disconnection(s, spec, witness)
            status = "ok"
        except HypothesisUnmet as exc:
            status = f"hypothesis:{exc.hypothesis}"
        except NoUnitDecomposition as exc:
            status = f"mechanism-failure:{exc}"

    generator_identity = True
    generator_witness = None
    for ideal, classification in classified_ideals(s):
        seed = dict(classification.witnesses)["generators"]
        pulled = spec.full_point_set
        for g in seed:
            pulled &= up_set(spec, generated_ideal(s, [g]).mask)
        if up_set(spec, ideal.mask) != pulled:
            generator_identity = False
            generator_witness = list(ideal.members)
            break

    return {
        "semiring": s.id,
        "class": cls,
        "points": [list(p.members) for p in spec.points],
        "closed_set_count": closed_family(s, spec).closed_set_count(),
        "t0": t0["holds"],
        "t0_witness": t0["witness"],
        "t1": t1["t1"],
        "t1_predicate": t1["t1_predicate"],
        "t1_witness": t1["witness"],
        "sober": sober["sober"],
        "sober_criterion": sober["criterion"],
        "sober_witness": sober["witness"],
        "connected": connected["connected"],
        "connected_witness": connected["witness"],
        "zero_ideal_in_points": connected["zero_ideal_in_points"],
        "disconnection_witness": witness_json,
        "idempotent": idempotent,
        "idempotent_status": status,
        "irreducible_upsets": irr["holds"],
        "upset_laws": "pass" if laws["holds"] else laws,
        "quasi_compact": qc["quasi_compact"],
        "quasi_compact_sum_identity": qc["sum_identity"],
        "quasi_compact_maximal_rule": qc["empty_intersection_implies_improper_sum"],
        "generator_upset_identity": generator_identity,
        "generator_upset_witness": generator_witness,
    }


def _topology_job(payload):
    doc, cls = payload
    return topology_instance_report(semiring_from_json(doc), cls)


def ideal_lattice_report(s):
    """Per-semiring ideal-lattice oracles (radical equality, implications,
    lattice laws)."""
    report = {"semiring": s.id, "n": s.n}
    ideals = [ideal_from_mask(s, m) for m in _ideal_masks_all(s)]
    proper = [a for a in ideals if a.is_proper]
    report["proper_ideals"] = len(proper)

    rad_ok, rad_witness = True, None
    for a in ideals:
        if radical(s, a).mask != radical_via_primes(s, a).mask:
            rad_ok, rad_witness = False, list(a.members)
            break
    report["radical_oracle"] = rad_ok
    report["radical_oracle_witness"] = rad_witness

    impl_ok, impl_witness = True, None
    for ideal, c in classified_ideals(s):
        chains = (
            (c.maximal, c.prime),
            (c.prime, c.primary),
            (c.prime, c.strongly_irreducible),
            (c.strongly_irreducible, c.irreducible),
        )
        if any(head and not tail for head, tail in chains):
            impl_ok, impl_witness = False, list(ideal.members)
            break
    report["classification_implications"] = impl_ok
    report["classification_witness"] = impl_witness

    mono_ok, mono_witness = True, None
    for a in ideals:
        ra = radical(s, a)
        if (a.mask & ra.mask) != a.mask:
            mono_ok, mono_witness = False, list(a.members)
            break
        for b in ideals:
            if (a.mask & b.mask) == a.mask:
                rb = radical(s, b)
                if (ra.mask & rb.mask) != ra.mask:
                    mono_ok, mono_witness = False, [list(a.members), list(b.members)]
                    break
        if not mono_ok:
            break
    report["radical_monotone"] = mono_ok
    report["radical_monotone_witness"] = mono_witness

    lat_ok, lat_witness = True, None
    prod_ok, prod_witness = True, None
    ideal_masks = {a.mask for a in ideals}
    for a in ideals:
        for b in ideals:
            total = sum_ideals(s, [a, b])
            inter = intersect_ideals(s, [a, b])
            prod = product_ideals(s, a, b)
            if prod_ok and (prod.mask & inter.mask) != prod.mask:
                prod_ok, prod_witness = False, [list(a.members), list(b.members)]
            union = a.mask | b.mask
            if (total.mask & union) != union or not all(
                (total.mask & m) == total.mask
                for m in ideal_masks
                if (m & union) == union
            ):
                lat_ok, lat_witness = False, [list(a.members), list(b.members)]
            if inter.mask not in ideal_masks:
                lat_ok, lat_witness = False, [list(a.members), list(b.members)]
        if not (lat_ok and prod_ok):
            break
    report["product_in_intersection"] = prod_ok
    report["product_witness"] = prod_witness
    report["sum_lub_intersection_glb"] = lat_ok
    report["lattice_witness"] = lat_witness
    return report


def morphism_report(s, t, hom, cls="prime"):
    """The morphism suite for one homomorphism under one class."""
    rep = {
        "source": s.id,
        "target": t.id,
        "hom": list(hom.map),
        "class": cls,
    }
    contraction = check_contraction(s, t, hom, cls)
    rep["contraction"] = contraction["holds"]
    if not contraction["holds"]:
        rep["contraction_witness"] = contraction["witness"]
        rep["continuous"] = "n/a"
        rep["dense"] = "n/a"
        rep["density_rhs"] = "n/a"
        rep["homeomorphism_onto_kernel_upset"] = "n/a"
        return rep
    try:
        induced_map(s, t, hom, cls)
        rep["continuous"] = True
    except AssertionError as exc:
        rep["continuous"] = False
        rep["continuity_witness"] = str(exc)
    density = check_density(s, t, hom, cls)
    rep["dense"] = density["dense"]
    rep["density_rhs"] = density["density_rhs"]
    rep["density_biconditional"] = density["biconditional"]
    rep["closure_image_equals_kernel_upset"] = density[
        "closure_image_equals_kernel_upset"
    ]
    if "radical_equality_matches_density" in density:
        rep["radical_equality_matches_density"] = density[
            "radical_equality_matches_density"
        ]
    rep["kernel"] = list(kernel(s, t, hom).members)
    if hom.is_surjective_onto(t.n):
        q = check_quotient_homeomorphism(s, t, hom, cls)
        rep["surjective"] = True
        rep["homeomorphism_onto_image"] = q["homeomorphism_onto_image"]
        rep["image_equals_kernel_upset"] = q["image_equals_kernel_upset"]
        rep["homeomorphism_onto_kernel_upset"] = q[
            "homeomorphism_onto_kernel_upset"
        ]
    else:
        rep["surjective"] = False
        rep["homeomorphism_onto_kernel_upset"] = "n/a"
    return rep


def quotient_report(s, ideal):
    """Quotient-map suite for one (semiring, proper ideal) pair."""
    quotient, qmap = bourne_quotient(s, ideal)
    rep = {
        "semiring": s.id,
        "ideal": list(ideal.members),
        "quotient": quotient.id,
        "quotient_size": quotient.n,
        "map_surjective": qmap.is_surjective_onto(quotient.n),
        "kernel": list(kernel(s, quotient, qmap).members),
    }
    for cls in ("prime", "proper"):
        q = check_quotient_homeomorphism(s, quotient, qmap, cls)
        rep[f"{cls}_homeomorphism_onto_kernel_upset"] = q[
            "homeomorphism_onto_kernel_upset"
        ]
        ind = induced_map(s, quotient, qmap, cls)
        rep[f"{cls}_image_equals_ideal_upset"] = (
            ind.image_point_set() == up_set(ind.target_spectrum, ideal.mask)
        )
    return rep


class _Tally:
    def __init__(self):
        self.data = {}

    def record(self, name, ok, witness):
        entry = self.data.setdefault(
            name, {"instances": 0, "passes": 0, "failures": 0, "witnesses": []}
        )
        entry["instances"] += 1
        if ok:
            entry["passes"] += 1
        else:
            entry["failures"] += 1
            if len(entry["witnesses"]) < WITNESS_CAP:
                entry["witnesses"].append(witness)

    def as_dict(self):
        return {k: self.data[k] for k in sorted(self.data)}

    def failures(self):
        return sum(v["failures"] for v in self.data.values())


def _corpus_semirings(corpus, enumerate_n):
    if corpus is None:
        semirings = [(e.semiring, "builtin") for e in builtin_catalog()]
    else:
        semirings = [(s, "supplied") for s in corpus]
    for n in enumerate_n or ():
        semirings.extend(
            (s, "enumerated") for s in enumerate_semirings(n, up_to_iso=True)
        )
    if not semirings:
        raise EmptyFamily("sweep corpus is empty")
    seen = {}
    for s, _ in semirings:
        if s.id in seen and not seen[s.id].same_structure(s):
            raise ParseError(f"duplicate corpus id {s.id!r} with different tables")
        seen[s.id] = s
    unique = []
    emitted = set()
    for s, source in semirings:
        if s.id not in emitted:
            unique.append((s, source))
            emitted.add(s.id)
    return unique


def sweep(
    corpus=None,
    classes=None,
    enumerate_n=(),
    jobs=None,
    include_morphisms=True,
    morphism_order_cap=3,
    log=None,
):
    """Run every oracle over the corpus x class grid and aggregate.

    Returns the report dict; ``report["failures"]`` counts universal
    oracle failures (the exit signal).  Wall time is written to ``log``
    (default stderr), never into the report.
    """
    start = time.perf_counter()
    classes = list(classes) if classes is not None else list(DEFAULT_CLASSES)
    semirings = _corpus_semirings(corpus, enumerate_n)
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)

    payloads = [
        (semiring_to_json(s), cls) for s, _ in semirings for cls in classes
    ]
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            topo = list(pool.map(_topology_job, payloads, chunksize=8))
    else:
        topo = [_topology_job(p) for p in payloads]

    ideal_reports = [ideal_lattice_report(s) for s, _ in semirings]

    tally = _Tally()
    observations = _Tally()

    for rep in topo:
        key = {"semiring": rep["semiring"], "class": rep["class"]}
        tally.record("t0", rep["t0"], {**key, "witness": rep["t0_witness"]})
        tally.record(
            "t1_equivalence",
            rep["t1"] == rep["t1_predicate"],
            {**key, "t1": rep["t1"], "predicate": rep["t1_predicate"]},
        )
        tally.record(
            "sober_agreement", rep["sober"] == rep["sober_criterion"], key
        )
        if rep["class"] in ("proper", "prime", "strongly-irreducible"):
            tally.record("sober_corollary", rep["sober"], key)
        if rep["zero_ideal_in_points"]:
            tally.record(
                "connected_when_zero_present", rep["connected"] is True, key
            )
        tally.record("irreducible_upsets", rep["irreducible_upsets"], key)
        tally.record("upset_laws", rep["upset_laws"] == "pass", {**key, "laws": rep["upset_laws"]})
        tally.record(
            "quasi_compact_mechanism",
            rep["quasi_compact_sum_identity"] and rep["quasi_compact_maximal_rule"],
            key,
        )
        tally.record(
            "generator_upset_identity",
            rep["generator_upset_identity"],
            {**key, "witness": rep["generator_upset_witness"]},
        )
        if rep["idempotent_status"] in ("ok",) or rep[
            "idempotent_status"
        ].startswith("mechanism-failure"):
            tally.record(
                "idempotent_extraction",
                rep["idempotent_status"] == "ok",
                {**key, "status": rep["idempotent_status"]},
            )

    for rep in ideal_reports:
        key = {"semiring": rep["semiring"]}
        tally.record(
            "radical_oracle",
            rep["radical_oracle"],
            {**key, "witness": rep["radical_oracle_witness"]},
        )
        tally.record(
            "classification_implications",
            rep["classification_implications"],
            {**key, "witness": rep["classification_witness"]},
        )
        tally.record("radical_monotone", rep["radical_monotone"], key)
        tally.record("product_in_intersection", rep["product_in_intersection"], key)
        tally.record("sum_lub_intersection_glb", rep["sum_lub_intersection_glb"], key)

    morphism_reports = []
    hom_count = 0
    pair_count = 0
    if include_morphisms:
        small = [s for s, _ in semirings if s.n <= morphism_order_cap]
        for s in small:
            for t in small:
                pair_count += 1
                for hom in enumerate_homomorphisms(s, t):
                    hom_count += 1
                    rep = morphism_report(s, t, hom, "prime")
                    morphism_reports.append(rep)
                    key = {
                        "source": s.id,
                        "target": t.id,
                        "hom": list(hom.map),
                    }
                    tally.record("morphism_prime_contraction", rep["contraction"], key)
                    if rep["contraction"]:
                        tally.record(
                            "morphism_continuity", rep["continuous"] is True, key
                        )
                        tally.record(
                            "morphism_density_biconditional",
                            rep["density_biconditional"],
                            key,
                        )
                        tally.record(
                            "morphism_closure_image_equals_kernel_upset",
                            rep["closure_image_equals_kernel_upset"],
                            key,
                        )
                        if "radical_equality_matches_density" in rep:
                            tally.record(
                                "morphism_prime_radical_equality",
                                rep["radical_equality_matches_density"],
                                key,
                            )
                        if rep["surjective"]:
                            tally.record(
                                "morphism_homeomorphism_onto_image",
                                rep["homeomorphism_onto_image"],
                                key,
                            )
                            observations.record(
                                "surjective_image_equals_kernel_upset",
                                rep["image_equals_kernel_upset"],
                                key,
                            )

    quotient_reports = []
    for s, _ in semirings:
        for ideal in all_ideals(s, proper_only=True):
            rep = quotient_report(s, ideal)
            quotient_reports.append(rep)
            key = {"semiring": s.id, "ideal": list(ideal.members)}
            tally.record("quotient_map_surjective", rep["map_surjective"], key)
            for cls in ("prime", "proper"):
                tally.record(
                    "quotient_kernel_homeomorphism",
                    rep[f"{cls}_homeomorphism_onto_kernel_upset"],
                    {**key, "class": cls},
                )
                observations.record(
                    "quotient_image_equals_ideal_upset",
                    rep[f"{cls}_image_equals_ideal_upset"],
                    {**key, "class": cls},
                )

    report = {
        "corpus": {
            "size": len(semirings),
            "semirings": [
                {"id": s.id, "n": s.n, "source": source}
                for s, source in semirings
            ],
        },
        "classes": classes,
        "topology": topo,
        "ideal_checks": ideal_reports,
        "morphisms": {
            "order_cap": morphism_order_cap,
            "pairs": pair_count,
            "homs": hom_count,
            "reports": morphism_reports,
        },
        "quotients": {
            "instances": len(quotient_reports),
            "reports": quotient_reports,
        },
        "tallies": tally.as_dict(),
        "observations": observations.as_dict(),
        "failures": tally.failures(),
    }
    elapsed = time.perf_counter() - start
    print(
        f"sweep: {len(semirings)} semirings x {len(classes)} classes, "
        f"{hom_count} homomorphisms, {len(quotient_reports)} quotients, "
        f"{report['failures']} failures, {elapsed:.2f}s",
        file=log if log is not None else sys.stderr,
    )
    return report
