"""Sweep harness: run every theorem oracle over a corpus and aggregate.

Every oracle is one row of ``ORACLES`` (see ``Oracle``), keyed by the
kind of report it reads.  The same rows fill the sweep's ``tallies`` and
``observations`` and decide the exit code of ``iseki topology`` and
``iseki morphisms``.  The observations are the image-versus-kernel-up-set
comparison for surjections and the ideal-up-set form of the quotient map.

The rows read report fields, and each field has one definition: the
check in ``topology`` or ``morphisms`` that decides it returns it under
its report name, and the report builders below only merge those dicts
with the instance's identity fields.

Reports are deterministic: corpus order is fixed, every collection is
sorted, and wall-clock time goes to stderr instead of the report, so two
runs produce byte-identical JSON.

Each distinct instance is evaluated once per sweep.  An Iseki space is
the semiring's tables plus its point set, and ``spectrum`` returns one
space object per (tables, point set).  A homomorphism's checks depend on
the two tables, the map and the class; a quotient's on the tables and
the ideal; an ideal-lattice report's on the tables.  ``sweep`` keeps one
report body per such key (the space and semiring objects themselves: a
semiring's equality is its tables) in a dict local to the call and
writes each instance's identity fields (ids and class) over a shallow
copy of it; it enumerates the homomorphisms of each distinct pair of
tables once, in the same way.  The invariant: a report field that
depends on an identity (an id or the class name) must be stamped, never
memoized.  The analyses below the sweep are cached per table pair too,
so a Bourne quotient whose tables are a corpus semiring's reuses that
semiring's ideals and spaces.  Class names are canonicalised before any
work, so rows and oracles read the canonical name.

Verdicts are decided once per distinct body as well: ``verdicts`` runs
each oracle on one instance of a (kind, body key, class), and the tally
replays that outcome for every instance in corpus order, taking each
failure witness's ``INSTANCE_KEY`` fields from the instance itself.  The
invariant: an oracle (its ``applies``, ``holds`` and ``witness``) may
read body fields and the class, never an id.
The tallies still count every instance.  The builtin catalog's 240
topology instances, 318 homomorphisms and 62 quotients are 16 distinct
spaces, 12 distinct homomorphisms and 21 distinct quotients; the stderr
summary line gives these counts.
"""

import sys
import time
from dataclasses import dataclass
from typing import Callable

from .catalog import builtin_catalog
from .enumeration import enumerate_semirings
from .errors import ContractionFails, EmptyFamily, ParseError
from .ideals import (
    _proper_ideal_masks,
    classified_ideals,
    ideal_algebra,
    mask_members,
    radical_via_primes,
)
from .morphisms import (
    check_density,
    check_quotient_homeomorphism,
    enumerate_homomorphisms,
    induced_map,
)
from .semiring import bourne_quotient, quotient_id
from .topology import CHECKS, CLASS_FLAGS, parse_class, spectrum

DEFAULT_CLASSES = list(CLASS_FLAGS)
WITNESS_CAP = 10
QUOTIENT_CLASSES = ("prime", "proper")
# The morphism suite runs over every ordered pair of corpus semirings of
# at most this order.
MORPHISM_ORDER_CAP = 3


def topology_instance_report(s, cls):
    """The per-(semiring, class) topology report that the sweep tallies."""
    return topology_report_by_check(s, cls)[0]


def topology_report_by_check(s, cls):
    """The per-(semiring, class) topology report (the space's points and
    closed-set count, and the fields of every check in ``topology.CHECKS``),
    and each check's fields by group name; each check runs once."""
    spec = spectrum(s, cls)
    report = {
        "semiring": s.id,
        "class": cls,
        **spec.to_json(),
        "closed_set_count": spec.closed_set_count(),
    }
    groups = {group: check(spec) for group, check in CHECKS.items()}
    for fields in groups.values():
        report.update(fields)
    return report, groups


def ideal_lattice_report(s):
    """Per-semiring ideal-lattice oracles (radical equality, implications,
    lattice laws)."""
    report = {"semiring": s.id, "n": s.n}
    algebra = ideal_algebra(s)
    masks = algebra.masks
    radicals = algebra.radicals
    report["proper_ideals"] = sum(1 for a in masks if a != s.full_mask)

    rad_ok, rad_witness = True, None
    for a in masks:
        if radicals[a] != radical_via_primes(s, a):
            rad_ok, rad_witness = False, mask_members(s, a)
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
            impl_ok, impl_witness = False, mask_members(s, ideal)
            break
    report["classification_implications"] = impl_ok
    report["classification_witness"] = impl_witness

    mono_ok, mono_witness = True, None
    for a in masks:
        ra = radicals[a]
        if (a & ra) != a:
            mono_ok, mono_witness = False, mask_members(s, a)
            break
        for b in masks:
            if (a & b) == a:
                rb = radicals[b]
                if (ra & rb) != ra:
                    mono_ok, mono_witness = False, [mask_members(s, a), mask_members(s, b)]
                    break
        if not mono_ok:
            break
    report["radical_monotone"] = mono_ok
    report["radical_monotone_witness"] = mono_witness

    lat_ok, lat_witness = True, None
    prod_ok, prod_witness = True, None
    ideal_masks = set(masks)
    for a in masks:
        sums, products = algebra.sums[a], algebra.products[a]
        for b in masks:
            total = sums[b]
            inter = a & b
            prod = products[b]
            if prod_ok and (prod & inter) != prod:
                prod_ok, prod_witness = False, [mask_members(s, a), mask_members(s, b)]
            union = a | b
            if (total & union) != union or not all(
                (total & m) == total
                for m in ideal_masks
                if (m & union) == union
            ):
                lat_ok, lat_witness = False, [mask_members(s, a), mask_members(s, b)]
            if inter not in ideal_masks:
                lat_ok, lat_witness = False, [mask_members(s, a), mask_members(s, b)]
        if not (lat_ok and prod_ok):
            break
    report["product_in_intersection"] = prod_ok
    report["product_witness"] = prod_witness
    report["sum_lub_intersection_glb"] = lat_ok
    report["lattice_witness"] = lat_witness
    return report


def morphism_report(s, t, hom, cls):
    """The morphism suite for one homomorphism under one class."""
    rep = {
        "source": s.id,
        "target": t.id,
        "hom": list(hom),
        "class": cls,
    }
    try:
        ind = induced_map(s, t, hom, cls)
    except ContractionFails as exc:
        return {
            **rep,
            "contraction": False,
            "contraction_witness": exc.witness,
            "continuous": "n/a",
            "dense": "n/a",
            "density_rhs": "n/a",
            "homeomorphism_onto_kernel_upset": "n/a",
        }
    rep["contraction"] = True
    rep["continuous"] = ind.continuous
    if not ind.continuous:
        rep["continuity_witness"] = ind.continuity_witness
    rep["kernel"] = mask_members(s, ind.kernel)
    return {
        **rep,
        **check_density(ind),
        **check_quotient_homeomorphism(ind),
    }


def quotient_report(s, ideal):
    """Quotient-map suite for one (semiring, proper ideal mask) pair."""
    quotient, qmap = bourne_quotient(s, ideal)
    rep = {
        "semiring": s.id,
        "ideal": mask_members(s, ideal),
        "quotient": quotient.id,
        "quotient_size": quotient.n,
        "map_surjective": len(set(qmap)) == quotient.n,
    }
    for cls in QUOTIENT_CLASSES:
        ind = induced_map(s, quotient, qmap, cls)
        q = check_quotient_homeomorphism(ind)
        rep[f"{cls}_homeomorphism_onto_kernel_upset"] = q[
            "homeomorphism_onto_kernel_upset"
        ]
        rep[f"{cls}_image_equals_ideal_upset"] = (
            ind.image_point_set() == ind.spec_s.subbasis[ideal]
        )
    # The kernel does not depend on the class.
    rep["kernel"] = mask_members(s, ind.kernel)
    return rep


# Report kinds, and the report fields that identify a failing instance.
TOPOLOGY, IDEAL_LATTICE, MORPHISM, QUOTIENT = (
    "topology instance", "ideal lattice", "morphism", "quotient"
)
INSTANCE_KEY = {
    TOPOLOGY: ("semiring", "class"),
    IDEAL_LATTICE: ("semiring",),
    MORPHISM: ("source", "target", "hom"),
    QUOTIENT: ("semiring", "ideal"),
}
UNIVERSAL, OBSERVATION = True, False


@dataclass(frozen=True)
class Oracle:
    """One theorem oracle, evaluated on every report of one kind.

    ``holds``, ``applies`` and ``witness`` take the report dict and read
    no id field (see the module docstring).  A failing instance is
    recorded as the report's ``INSTANCE_KEY`` fields plus
    ``witness(rep)``.  A universal oracle must hold wherever it
    applies: a failure fails the sweep and the CLI verb.  An observation
    is a claim known to fail on honest instances; its failures are
    recorded with witnesses but fail nothing.
    """

    name: str
    universal: bool
    holds: Callable[[dict], bool]
    applies: Callable[[dict], bool] = lambda rep: True
    witness: Callable[[dict], dict] = lambda rep: {}


def _prime_contraction(rep):
    # The morphism suite is stated for the prime class, where contraction
    # is a theorem; the other morphism oracles need the induced map.
    return rep["class"] == "prime" and rep["contraction"]


def _prime_surjection(rep):
    return _prime_contraction(rep) and rep["surjective"]


def _quotient_class_oracles(cls):
    """The quotient-map oracles for the induced map under one class."""
    return (
        Oracle("quotient_kernel_homeomorphism", UNIVERSAL,
               lambda r: r[f"{cls}_homeomorphism_onto_kernel_upset"],
               witness=lambda r: {"class": cls}),
        Oracle("quotient_image_equals_ideal_upset", OBSERVATION,
               lambda r: r[f"{cls}_image_equals_ideal_upset"],
               witness=lambda r: {"class": cls}),
    )


ORACLES = {
    TOPOLOGY: (
        Oracle("t0", UNIVERSAL, lambda r: r["t0"],
               witness=lambda r: {"witness": r["t0_witness"]}),
        Oracle("t1_equivalence", UNIVERSAL, lambda r: r["t1"] == r["t1_predicate"],
               witness=lambda r: {"t1": r["t1"], "predicate": r["t1_predicate"]}),
        Oracle("sober_agreement", UNIVERSAL,
               lambda r: r["sober"] == r["sober_criterion"]),
        Oracle("sober_corollary", UNIVERSAL, lambda r: r["sober"],
               applies=lambda r: r["class"] in ("proper", "prime", "strongly-irreducible")),
        Oracle("connected_when_zero_present", UNIVERSAL,
               lambda r: r["connected"] is True,
               applies=lambda r: r["zero_ideal_in_points"]),
        Oracle("irreducible_upsets", UNIVERSAL, lambda r: r["irreducible_upsets"]),
        Oracle("upset_laws", UNIVERSAL, lambda r: r["upset_laws"] == "pass",
               witness=lambda r: {"laws": r["upset_laws"]}),
        Oracle("quasi_compact_mechanism", UNIVERSAL,
               lambda r: r["quasi_compact_sum_identity"]
               and r["quasi_compact_maximal_rule"]),
        Oracle("generator_upset_identity", UNIVERSAL,
               lambda r: r["generator_upset_identity"],
               witness=lambda r: {"witness": r["generator_upset_witness"]}),
        Oracle("idempotent_extraction", UNIVERSAL,
               lambda r: r["idempotent_status"] == "ok",
               applies=lambda r: r["idempotent_status"].split(":")[0]
               in ("ok", "mechanism-failure"),
               witness=lambda r: {"status": r["idempotent_status"]}),
    ),
    IDEAL_LATTICE: (
        Oracle("radical_oracle", UNIVERSAL, lambda r: r["radical_oracle"],
               witness=lambda r: {"witness": r["radical_oracle_witness"]}),
        Oracle("classification_implications", UNIVERSAL,
               lambda r: r["classification_implications"],
               witness=lambda r: {"witness": r["classification_witness"]}),
        Oracle("radical_monotone", UNIVERSAL, lambda r: r["radical_monotone"]),
        Oracle("product_in_intersection", UNIVERSAL,
               lambda r: r["product_in_intersection"]),
        Oracle("sum_lub_intersection_glb", UNIVERSAL,
               lambda r: r["sum_lub_intersection_glb"]),
    ),
    MORPHISM: (
        Oracle("morphism_prime_contraction", UNIVERSAL,
               lambda r: r["contraction"], applies=lambda r: r["class"] == "prime"),
        Oracle("morphism_continuity", UNIVERSAL,
               lambda r: r["continuous"] is True, applies=_prime_contraction),
        Oracle("morphism_density_biconditional", UNIVERSAL,
               lambda r: r["density_biconditional"], applies=_prime_contraction),
        Oracle("morphism_closure_image_equals_kernel_upset", UNIVERSAL,
               lambda r: r["closure_image_equals_kernel_upset"],
               applies=_prime_contraction),
        Oracle("morphism_prime_radical_equality", UNIVERSAL,
               lambda r: r["radical_equality_matches_density"],
               applies=lambda r: _prime_contraction(r)
               and "radical_equality_matches_density" in r),
        Oracle("morphism_homeomorphism_onto_image", UNIVERSAL,
               lambda r: r["homeomorphism_onto_image"], applies=_prime_surjection),
        Oracle("surjective_image_equals_kernel_upset", OBSERVATION,
               lambda r: r["image_equals_kernel_upset"], applies=_prime_surjection),
    ),
    QUOTIENT: (
        Oracle("quotient_map_surjective", UNIVERSAL, lambda r: r["map_surjective"]),
        *(oracle for cls in QUOTIENT_CLASSES for oracle in _quotient_class_oracles(cls)),
    ),
}


def verdicts(kind, rep):
    """``(oracle, holds, detail)`` for every oracle of ``kind`` that
    applies to ``rep``; ``detail`` is ``oracle.witness(rep)`` when the
    oracle fails and None when it holds.  A function of the report body
    and its class alone (see the module docstring), so the sweep
    computes it once per distinct body."""
    out = []
    for oracle in ORACLES[kind]:
        if oracle.applies(rep):
            ok = bool(oracle.holds(rep))
            out.append((oracle, ok, None if ok else oracle.witness(rep)))
    return out


def universal_oracles_hold(kind, reports):
    """Whether every universal oracle of ``kind`` holds on every report it
    applies to: the exit-0 condition of ``iseki topology``/``morphisms``."""
    return all(
        ok
        for rep in reports
        for oracle, ok, _ in verdicts(kind, rep)
        if oracle.universal
    )


def _record(tally, name, kind, rep, ok, detail):
    """Count one instance of an oracle; keep the first WITNESS_CAP failure
    witnesses, each the instance's ``INSTANCE_KEY`` fields plus the
    oracle's ``detail``."""
    entry = tally.setdefault(
        name, {"instances": 0, "passes": 0, "failures": 0, "witnesses": []}
    )
    entry["instances"] += 1
    if ok:
        entry["passes"] += 1
    else:
        entry["failures"] += 1
        if len(entry["witnesses"]) < WITNESS_CAP:
            witness = {field: rep[field] for field in INSTANCE_KEY[kind]}
            witness.update(detail)
            entry["witnesses"].append(witness)


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
    # The first occurrence of each id, in corpus order.
    unique = {}
    for s, source in semirings:
        first, _ = unique.setdefault(s.id, (s, source))
        if first != s:
            raise ParseError(f"duplicate corpus id {s.id!r} with different tables")
    return list(unique.values())


def _memoized(memo, key, build, *args):
    """``memo[key]``, built by ``build(*args)`` on first use."""
    if key not in memo:
        memo[key] = build(*args)
    return memo[key]


def _stamped(memo, key, identity, report, *args):
    """``(key, copy)``: the copy is of the report body memoized under
    ``key`` (built by ``report(*args)`` on first use), with the
    instance's ``identity`` fields written over it.  The body itself is
    never modified."""
    return key, {**_memoized(memo, key, report, *args), **identity}


def sweep(corpus=None, classes=None, enumerate_n=(), jobs=None, log=None):
    """Run every oracle over the corpus x class grid and aggregate.

    Returns the report dict; ``report["failures"]`` counts universal
    oracle failures (the exit signal).  Wall time is written to ``log``
    (default stderr), never into the report.  ``jobs`` is ignored; it is
    kept only because ``perfbench/sample.py`` still passes it.  Class
    names are canonicalised before any work, and a class named twice
    (``fg(1)`` and ``fg:1``, say) raises ParseError: its instances would
    be counted twice.
    """
    start = time.perf_counter()
    classes = [
        parse_class(cls)
        for cls in (classes if classes is not None else DEFAULT_CLASSES)
    ]
    for i, cls in enumerate(classes):
        if cls in classes[:i]:
            raise ParseError(f"duplicate class {cls!r}")
    semirings = _corpus_semirings(corpus, enumerate_n)

    # One report body per distinct space or tables, stamped with each
    # instance's identity fields and kept with its body key, and one
    # homomorphism list per distinct pair of tables (see the module
    # docstring).
    spaces, lattices, maps, quotients, homs = {}, {}, {}, {}, {}

    topo = [
        _stamped(
            spaces,
            spectrum(s, cls),
            {"semiring": s.id, "class": cls},
            topology_instance_report, s, cls,
        )
        for s, _ in semirings
        for cls in classes
    ]

    ideal_reports = [
        _stamped(lattices, s, {"semiring": s.id}, ideal_lattice_report, s)
        for s, _ in semirings
    ]

    small = [s for s, _ in semirings if s.n <= MORPHISM_ORDER_CAP]
    pairs = [(s, t) for s in small for t in small]
    morphism_reports = [
        _stamped(
            maps,
            (s, t, hom),
            {"source": s.id, "target": t.id},
            morphism_report, s, t, hom, "prime",
        )
        for s, t in pairs
        for hom in _memoized(homs, (s, t), enumerate_homomorphisms, s, t)
    ]

    quotient_reports = [
        _stamped(
            quotients,
            (s, ideal),
            {"semiring": s.id, "quotient": quotient_id(s.id, mask_members(s, ideal))},
            quotient_report, s, ideal,
        )
        for s, _ in semirings
        for ideal in _proper_ideal_masks(s)
    ]

    # One verdict list per distinct (body, class), replayed for every
    # instance in corpus order.
    tallies, observations, decided = {}, {}, {}
    for kind, instances in (
        (TOPOLOGY, topo),
        (IDEAL_LATTICE, ideal_reports),
        (MORPHISM, morphism_reports),
        (QUOTIENT, quotient_reports),
    ):
        for key, rep in instances:
            verdict_key = (kind, key, rep.get("class"))
            for oracle, ok, detail in _memoized(decided, verdict_key, verdicts, kind, rep):
                tally = tallies if oracle.universal else observations
                _record(tally, oracle.name, kind, rep, ok, detail)

    report = {
        "corpus": {
            "size": len(semirings),
            "semirings": [
                {"id": s.id, "n": s.n, "source": source}
                for s, source in semirings
            ],
        },
        "classes": classes,
        "topology": [rep for _, rep in topo],
        "ideal_checks": [rep for _, rep in ideal_reports],
        "morphisms": {
            "order_cap": MORPHISM_ORDER_CAP,
            "pairs": len(pairs),
            "homs": len(morphism_reports),
            "reports": [rep for _, rep in morphism_reports],
        },
        "quotients": {
            "instances": len(quotient_reports),
            "reports": [rep for _, rep in quotient_reports],
        },
        "tallies": dict(sorted(tallies.items())),
        "observations": dict(sorted(observations.items())),
        "failures": sum(entry["failures"] for entry in tallies.values()),
    }
    elapsed = time.perf_counter() - start
    print(
        f"sweep: {len(semirings)} semirings x {len(classes)} classes, "
        f"{len(morphism_reports)} homomorphisms, {len(quotient_reports)} quotients, "
        f"{len(spaces)} distinct spaces, {len(maps)} distinct homomorphisms, "
        f"{len(quotients)} distinct quotients, "
        f"{report['failures']} failures, {elapsed:.2f}s",
        file=log if log is not None else sys.stderr,
    )
    return report
