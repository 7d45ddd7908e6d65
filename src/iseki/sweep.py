"""Sweep harness: run every theorem oracle over a corpus and aggregate.

Every oracle is one row of ``ORACLES`` (see ``Oracle``), keyed by the
kind of report it reads.  The same rows fill the sweep's ``tallies`` and
``observations`` and decide the exit code of ``iseki topology`` and
``iseki morphisms``.  The observations are the image-versus-kernel-up-set
comparison for surjections and the ideal-up-set form of the quotient map.

The rows read report fields, and each field has one definition: the
check in ``topology`` or ``morphisms`` that decides it returns it under
its report name, and the report builders below only merge those dicts
with the instance's identity fields.  No field restates another: where
a check finds a witness, the witness is the verdict, and a
``*_witness`` field is None exactly when its property holds.  Five rows
read the fact itself.  ``connected_when_zero_present`` applies where
[0] is among the ``points``, ``morphism_density_biconditional``
compares ``dense`` with ``density_rhs``,
``morphism_homeomorphism_onto_image`` reads ``continuity_witness`` (the
proof is at ``morphisms.check_surjection``), and ``sober_agreement`` and
``sober_corollary`` read ``t0_witness``, which decides direct sobriety
on these spaces (the proof is at ``topology.check_sober``).  The
quotient report builds its own fields from the induced maps: each
class's ``{cls}_homeomorphism_onto_kernel_upset`` says that the map is
continuous and that its image is the up-set of the kernel.  A check
reports the same fields for every class; only the rows' ``applies``
read it.

Reports are deterministic: corpus order is fixed, every collection is
sorted, and wall-clock time goes to stderr instead of the report, so two
runs produce byte-identical JSON.

Each distinct instance is evaluated once per sweep.  An Iseki space is
the semiring's tables plus its point set, and ``spectrum`` returns one
space object per (tables, point set).  A homomorphism's checks depend on
the two tables, the map and the class; a quotient's on the tables and
the ideal; an ideal-lattice report's on the tables.  ``sweep`` keeps the
row of the first instance of each such key (the space and semiring
objects themselves: a semiring's equality is its tables) in a dict local
to the call.  That row is a read-only ``serialize.Row`` built from the
report and is its own body; every later instance's row is a Row made
from it, with the instance's identity fields (ids and class) stamped
over it, so no body is kept apart from the rows, the rows of one kind
share one tuple of identity names, and a body's text is encoded once.  It enumerates the
homomorphisms of each distinct pair of tables once, in a dict as well.
The invariant: a report field that depends on an identity (an id or the
class name) must be stamped, never memoized.  The analyses below the
sweep are cached per table pair too, so a Bourne quotient whose tables
are a corpus semiring's reuses that semiring's ideals and spaces.  Class
names are canonicalised before any work, and by the report builders, so
rows and oracles read them.

Verdicts are decided once per distinct body as well: the tally runs
``verdicts`` once per (kind, body, class) group and counts the group's
size; witnesses come from failing groups, each with its own instance's
``INSTANCE_KEY`` fields.  The invariant: an oracle (its ``applies``,
``holds`` and ``witness``) may read body fields and the class, never an
id.
The tallies still count every instance.  The builtin catalog's 240
topology instances, 318 homomorphisms and 62 quotients are 16 distinct
spaces, 12 distinct homomorphisms and 21 distinct quotients; the stderr
summary line gives these counts.
"""

import sys
import time

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
    check_surjection,
    enumerate_homomorphisms,
    induced_map,
)
from .semiring import bourne_quotient, quotient_id
from .serialize import Row
from .topology import CHECKS, CLASS_FLAGS, parse_class, spectrum

DEFAULT_CLASSES = list(CLASS_FLAGS)
WITNESS_CAP = 10
QUOTIENT_CLASSES = ("prime", "proper")
# Each quotient class's two report fields, named once for every report.
QUOTIENT_FIELDS = {
    cls: (f"{cls}_homeomorphism_onto_kernel_upset", f"{cls}_image_equals_ideal_upset")
    for cls in QUOTIENT_CLASSES
}
# The morphism suite runs over every ordered pair of corpus semirings of
# at most this order.
MORPHISM_ORDER_CAP = 3


def topology_instance_report(s, cls):
    """The per-(semiring, class) topology report that the sweep tallies."""
    return topology_report_by_check(s, cls)[0]


def topology_report_by_check(s, cls):
    """The per-(semiring, class) topology report (the space's points and
    the fields of every check in ``topology.CHECKS``), and each check's
    fields by group name; each check runs once."""
    cls = cls if cls in CLASS_FLAGS else parse_class(cls)
    spec = spectrum(s, cls)
    report = {"semiring": s.id, "class": cls, **spec.to_json()}
    groups = {group: check(spec) for group, check in CHECKS.items()}
    for fields in groups.values():
        report.update(fields)
    return report, groups


def ideal_lattice_report(s):
    """Per-semiring ideal-lattice oracles (radical equality, implications,
    lattice laws).  The monotone radical and the sums are decided on the
    join pairs (a, a + Rg) and the product on the principal pairs
    (Rg, Rh), each with its proof at the check; no check walks pairs of
    ideals.

    ``sum_lub_intersection_glb`` requires every ideal found to hold 0,
    and each join entry a + Rg, the sums that ``generated`` reads, to be
    an ideal found, equal to {x + y : x in a, y in Rg} recomputed from
    the two tables, and to be a itself when g is in a.  Then every mask
    found is an ideal: for g in a, a = a + Rg holds every rg (x = 0) and
    every x + g (y = 1g).  And every ideal is found: it is the fold of
    its members' joins from {0}, which is found (``principals`` is its
    row).  So the masks are exactly the ideals, the meet of two of them
    is an ideal, and a + Rg, the set of pair sums, is the least upper
    bound of a and Rg."""
    report = {"semiring": s.id}
    algebra = ideal_algebra(s)
    masks, joins, principals = algebra.masks, algebra.joins, algebra.principals
    radicals = algebra.radicals
    report["proper_ideals"] = sum(1 for a in masks if a != s.full_mask)

    def members(witness):  # a mask or a list of masks as element lists
        if isinstance(witness, list):
            return [mask_members(s, m) for m in witness]
        return None if witness is None else mask_members(s, witness)

    rad_witness = next((a for a in masks if radicals[a] != radical_via_primes(s, a)), None)
    report["radical_oracle_witness"] = members(rad_witness)

    impl_witness = None
    for ideal, c in classified_ideals(s):
        chains = (
            (c.maximal, c.prime),
            (c.prime, c.primary),
            (c.prime, c.strongly_irreducible),
            (c.strongly_irreducible, c.irreducible),
        )
        if any(head and not tail for head, tail in chains):
            impl_witness = mask_members(s, ideal)
            break
    report["classification_witness"] = impl_witness

    # a lies in rad(a), and rad(a) in rad(a + Rg): adding the members of an
    # ideal b above a one at a time is a chain of joins from a to b, so the
    # join pairs decide monotonicity.  A join entry that is not an ideal
    # has no radical; ``sum_lub_intersection_glb`` reports it.
    mono_witness = None
    for a, row in joins.items():
        ra = radicals[a]
        above = [t for t in row if t in radicals and ra & ~radicals[t]]
        if a & ~ra or above:
            mono_witness = a if a & ~ra else [a, above[0]]
            break
    report["radical_monotone_witness"] = members(mono_witness)

    # ab is the sum of the R(gh), g in a and h in b, each inside Rg & Rh
    # and so inside a & b, an ideal (see ``sum_lub_intersection_glb``).
    prod_witness = next(
        (
            [rg, rh]
            for g, rg in enumerate(principals)
            for h, rh in enumerate(principals)
            if principals[s.mul[g][h]] & ~(rg & rh)
        ),
        None,
    )
    report["product_witness"] = members(prod_witness)

    # shifted[g][x] is the mask of x + Rg, Rg = {rg} from the two tables.
    addends = [{row[g] for row in s.mul} for g in range(s.n)]
    shifted = [[sum({1 << add_x[y] for y in rg}) for add_x in s.add] for rg in addends]

    def lattice_witness():
        for a, row in joins.items():
            xs = mask_members(s, a)
            for g, total in enumerate(row):
                pair_sums = 0
                for x in xs:
                    pair_sums |= shifted[g][x]
                if (
                    not a & 1
                    or total != pair_sums
                    or (a >> g) & 1 and total != a
                    or total not in joins
                ):
                    return [a, principals[g]]
        return None

    report["lattice_witness"] = members(lattice_witness())
    return report


def morphism_report(s, t, hom, cls):
    """The morphism suite for one homomorphism under one class."""
    cls = cls if cls in CLASS_FLAGS else parse_class(cls)
    rep = {
        "source": s.id,
        "target": t.id,
        "hom": list(hom),
        "class": cls,
    }
    try:
        ind = induced_map(s, t, hom, cls)
    except ContractionFails as exc:
        # No induced map, so no field that one decides.
        return {**rep, "contraction": False, "contraction_witness": exc.witness}
    rep["contraction"] = True
    rep["continuity_witness"] = ind.continuity_witness
    rep["kernel"] = mask_members(s, ind.kernel)
    return {
        **rep,
        **check_density(ind),
        **check_surjection(ind),
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
    for cls, (homeomorphism, image) in QUOTIENT_FIELDS.items():
        ind = induced_map(s, quotient, qmap, cls)
        up, image_mask = ind.spec_s.subbasis, ind.image_point_set()
        rep[homeomorphism] = ind.continuous and image_mask == up[ind.kernel]
        rep[image] = image_mask == up[ideal]
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
# The identity fields that the sweep stamps over a shared report body.
IDENTITY_FIELDS = {
    TOPOLOGY: ("semiring", "class"),
    IDEAL_LATTICE: ("semiring",),
    MORPHISM: ("source", "target"),
    QUOTIENT: ("semiring", "quotient"),
}
UNIVERSAL, OBSERVATION = True, False


class Oracle:
    """One theorem oracle, evaluated on every report of one kind.

    ``holds``, ``applies`` and ``witness`` take the report dict and read
    no id field (see the module docstring).  A failing instance is
    recorded as the report's ``INSTANCE_KEY`` fields plus
    ``witness(rep)``.  A universal oracle must hold wherever it
    applies: a failure fails the sweep and the CLI verb.  An observation
    is a claim known to fail on honest instances; its failures are
    recorded with witnesses but fail nothing.  A plain record that
    nothing hashes, so no field is read-only.
    """

    __slots__ = ("name", "universal", "holds", "applies", "witness")

    def __init__(self, name, universal, holds, applies=lambda rep: True, witness=lambda rep: {}):
        self.name, self.universal, self.holds = name, universal, holds
        self.applies, self.witness = applies, witness


def _prime_contraction(rep):
    # The morphism suite is stated for the prime class, where contraction
    # is a theorem; the other morphism oracles need the induced map.
    return rep["class"] == "prime" and rep["contraction"]


def _prime_surjection(rep):
    return _prime_contraction(rep) and rep["surjective"]


def _quotient_class_oracles(cls):
    """The quotient-map oracles for the induced map under one class."""
    homeomorphism, image = QUOTIENT_FIELDS[cls]
    return (
        Oracle("quotient_kernel_homeomorphism", UNIVERSAL,
               lambda r: r[homeomorphism],
               witness=lambda r: {"class": cls}),
        Oracle("quotient_image_equals_ideal_upset", OBSERVATION,
               lambda r: r[image],
               witness=lambda r: {"class": cls}),
    )


ORACLES = {
    TOPOLOGY: (
        Oracle("t0", UNIVERSAL, lambda r: r["t0_witness"] is None,
               witness=lambda r: {"witness": r["t0_witness"]}),
        Oracle("t1_equivalence", UNIVERSAL,
               lambda r: (r["t1_witness"] is None) == r["t1_predicate"],
               witness=lambda r: {
                   "t1": r["t1_witness"] is None, "predicate": r["t1_predicate"]
               }),
        Oracle("sober_agreement", UNIVERSAL,
               lambda r: (r["t0_witness"] is None) == r["sober_criterion"]),
        Oracle("sober_corollary", UNIVERSAL, lambda r: r["t0_witness"] is None,
               applies=lambda r: r["class"] in ("proper", "prime", "strongly-irreducible")),
        Oracle("connected_when_zero_present", UNIVERSAL,
               lambda r: r["connected_witness"] is None,
               applies=lambda r: [0] in r["points"]),
        Oracle("irreducible_upsets", UNIVERSAL, lambda r: r["irreducible_upsets"]),
        Oracle("upset_laws", UNIVERSAL, lambda r: r["upset_laws"] == "pass",
               witness=lambda r: {"laws": r["upset_laws"]}),
        Oracle("quasi_compact_mechanism", UNIVERSAL,
               lambda r: r["quasi_compact_sum_identity"]
               and r["quasi_compact_maximal_rule"]),
        Oracle("generator_upset_identity", UNIVERSAL,
               lambda r: r["generator_upset_witness"] is None,
               witness=lambda r: {"witness": r["generator_upset_witness"]}),
        Oracle("idempotent_extraction", UNIVERSAL,
               lambda r: r["idempotent_status"] == "ok",
               applies=lambda r: r["idempotent_status"].split(":")[0]
               in ("ok", "mechanism-failure"),
               witness=lambda r: {"status": r["idempotent_status"]}),
    ),
    IDEAL_LATTICE: (
        Oracle("radical_oracle", UNIVERSAL, lambda r: r["radical_oracle_witness"] is None,
               witness=lambda r: {"witness": r["radical_oracle_witness"]}),
        Oracle("classification_implications", UNIVERSAL,
               lambda r: r["classification_witness"] is None,
               witness=lambda r: {"witness": r["classification_witness"]}),
        Oracle("radical_monotone", UNIVERSAL, lambda r: r["radical_monotone_witness"] is None),
        Oracle("product_in_intersection", UNIVERSAL, lambda r: r["product_witness"] is None),
        Oracle("sum_lub_intersection_glb", UNIVERSAL, lambda r: r["lattice_witness"] is None),
    ),
    MORPHISM: (
        Oracle("morphism_prime_contraction", UNIVERSAL,
               lambda r: r["contraction"], applies=lambda r: r["class"] == "prime"),
        Oracle("morphism_continuity", UNIVERSAL,
               lambda r: r["continuity_witness"] is None, applies=_prime_contraction),
        Oracle("morphism_density_biconditional", UNIVERSAL,
               lambda r: r["dense"] == r["density_rhs"], applies=_prime_contraction),
        Oracle("morphism_closure_image_equals_kernel_upset", UNIVERSAL,
               lambda r: r["closure_image_equals_kernel_upset"],
               applies=_prime_contraction),
        Oracle("morphism_prime_radical_equality", UNIVERSAL,
               lambda r: r["radical_equality_matches_density"],
               applies=_prime_contraction),
        Oracle("morphism_homeomorphism_onto_image", UNIVERSAL,
               lambda r: r["continuity_witness"] is None, applies=_prime_surjection),
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


def _tally(kind, rows, tallies, observations):
    """Count every oracle of ``kind`` over ``rows`` into ``tallies``
    (universal) or ``observations``, once per (body, class) group, and
    keep its first WITNESS_CAP failing rows in corpus order as witnesses."""
    groups, failing = {}, {}
    for index, rep in enumerate(rows):
        key = id(rep.body), rep.get("class")
        members = groups.get(key)
        if members is None:
            groups[key] = [index]
        else:
            members.append(index)
    for members in groups.values():
        size = len(members)
        for oracle, ok, detail in verdicts(kind, rows[members[0]]):
            counts = tallies if oracle.universal else observations
            entry = counts.get(oracle.name)
            if entry is None:
                entry = counts[oracle.name] = {
                    "instances": 0, "passes": 0, "failures": 0, "witnesses": []
                }
            entry["instances"] += size
            entry["passes" if ok else "failures"] += size
            if not ok:
                failing.setdefault(oracle.name, (entry, []))[1].extend(
                    (index, detail) for index in members[:WITNESS_CAP]
                )
    for entry, found in failing.values():
        # Stable, so an instance's prime quotient row precedes its proper one.
        for index, detail in sorted(found, key=lambda item: item[0])[:WITNESS_CAP]:
            entry["witnesses"].append(
                {**{field: rows[index][field] for field in INSTANCE_KEY[kind]}, **detail}
            )


def _corpus_semirings(corpus, enumerate_n):
    if corpus is None:
        # Imported here: a supplied corpus never builds the catalog.
        from .catalog import builtin_catalog
        semirings = [(s, "builtin") for s in builtin_catalog()]
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


def _stamped(memo, key, kind, values, build, *args):
    """The row of an instance of ``kind`` whose identity fields hold
    ``values``.  The first instance of ``key`` makes ``build(*args)`` a
    Row, its own body, kept in ``memo``; a later one is a Row of that."""
    first = memo.get(key)
    if first is None:
        first = memo[key] = Row(build(*args), values, IDENTITY_FIELDS[kind])
        return first
    return Row(first, values, first.names)


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

    # The first instance's row per distinct space or tables, from which
    # every later instance's row is stamped, and one homomorphism list per
    # distinct pair of tables (see the module docstring).
    spaces, lattices, maps, quotients = {}, {}, {}, {}

    topo = [
        _stamped(
            spaces, spectrum(s, cls), TOPOLOGY, (s.id, cls), topology_instance_report, s, cls
        )
        for s, _ in semirings
        for cls in classes
    ]

    ideal_reports = [
        _stamped(lattices, s, IDEAL_LATTICE, (s.id,), ideal_lattice_report, s)
        for s, _ in semirings
    ]

    small = [s for s, _ in semirings if s.n <= MORPHISM_ORDER_CAP]
    pairs = [(s, t) for s in small for t in small]
    homs = dict.fromkeys(pairs)
    for s, t in homs:
        homs[s, t] = enumerate_homomorphisms(s, t)
    morphism_reports = [
        _stamped(
            maps, (s, t, hom), MORPHISM, (s.id, t.id), morphism_report, s, t, hom, "prime"
        )
        for s, t in pairs
        for hom in homs[s, t]
    ]

    quotient_reports = [
        _stamped(
            quotients, (s, ideal), QUOTIENT, (s.id, quotient_id(s.id, mask_members(s, ideal))),
            quotient_report, s, ideal,
        )
        for s, _ in semirings
        for ideal in _proper_ideal_masks(s)
    ]

    tallies, observations = {}, {}
    for kind, rows in (
        (TOPOLOGY, topo),
        (IDEAL_LATTICE, ideal_reports),
        (MORPHISM, morphism_reports),
        (QUOTIENT, quotient_reports),
    ):
        _tally(kind, rows, tallies, observations)

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
            "order_cap": MORPHISM_ORDER_CAP,
            "pairs": len(pairs),
            "homs": len(morphism_reports),
            "reports": morphism_reports,
        },
        "quotients": {
            "instances": len(quotient_reports),
            "reports": quotient_reports,
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
