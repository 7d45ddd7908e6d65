from collections import Counter
from functools import lru_cache
from itertools import combinations

import pytest
from conftest import (
    ReferenceLattice,
    atoms,
    canonical_key,
    closed_set_count,
    emit,
    nontrivial_idempotents,
    reference_irreducible_upsets,
    reference_quasi_compact,
    reference_upset_laws,
)

import iseki._kernels
from iseki.cli import main
from iseki.enumeration import enumerate_semirings
from iseki.errors import ContractionFails, HypothesisUnmet
from iseki.ideals import (
    _proper_ideal_masks,
    classified_ideals,
    ideal_algebra,
    ideal_from_members,
    mask_members,
    maximal_ideal_masks,
)
from iseki.morphisms import enumerate_homomorphisms, induced_map
from iseki.semiring import bourne_quotient, direct_product
from iseki.sweep import ideal_lattice_report, topology_instance_report
from iseki.topology import (
    Spectrum,
    _closed_family_cached,
    check_connected,
    check_irreducible_upsets,
    check_quasi_compact,
    check_sober,
    check_t0,
    check_t1,
    idempotent_from_disconnection,
    parse_class,
    point_set_members,
    spectrum,
    strong_disconnection_witness,
    up_set,
    verify_upset_laws,
)
from iseki.verify import verify_disconnection_witness

ALL_TAGS = (
    "proper",
    "prime",
    "maximal",
    "primary",
    "irreducible",
    "strongly-irreducible",
    "radical",
    "principal",
)


def test_parse_class():
    """A class is its canonical name."""
    assert parse_class("prime") == parse_class(" prime ") == "prime"
    assert parse_class("fg(2)") == parse_class("fg:2") == "fg(2)"
    with pytest.raises(ValueError):
        parse_class("weird")


def test_classes_with_the_same_points_share_one_space(z2):
    """A space is its tables plus its points: on Z2 the one prime ideal is
    the one maximal ideal and the one proper ideal."""
    assert spectrum(z2, "prime") is spectrum(z2, "maximal") is spectrum(z2, "proper")
    assert spectrum(z2, "fg:1") is spectrum(z2, "fg(1)")


def test_spectrum_examples(boolean, bb, z4):
    assert spectrum(boolean, "prime").to_json()["points"] == [[0]]
    assert spectrum(bb, "maximal").to_json()["points"] == [[0, 1], [0, 2]]
    assert spectrum(z4, "radical").to_json()["points"] == [[0, 2]]


def test_spectrum_never_contains_whole_semiring(catalog_semirings):
    for s in catalog_semirings:
        for tag in ALL_TAGS:
            for p in spectrum(s, tag).points:
                assert p != s.full_mask


def test_up_set_examples(bb, c3):
    spec = spectrum(bb, "maximal")
    assert up_set(spec, ideal_from_members(bb, [0])) == 0b11  # zero ideal: all
    assert up_set(spec, ideal_from_members(bb, [0, 2])) == 0b10  # Bx{0} only
    assert up_set(spec, ideal_from_members(bb, [0, 1, 2, 3])) == 0  # improper
    cspec = spectrum(c3, "prime")
    for i, p in enumerate(cspec.points):
        assert (up_set(cspec, p) >> i) & 1  # reflexivity


def _up_closed(masks, point_set):
    return all(
        (point_set >> j) & 1
        for i in range(len(masks))
        if (point_set >> i) & 1
        for j in range(len(masks))
        if (masks[i] & masks[j]) == masks[i]
    )


def _reference_onto_image(ref_s, ref_t, ind):
    """The subspace-lattice definition: an injective map is a homeomorphism
    onto its image when it carries the closed sets of its domain exactly
    onto the traces of the closed sets of its codomain on the image."""
    image = ind.image_point_set()
    forward = set()
    for k in ref_t.closed:
        pushed = 0
        for j, i in enumerate(ind.map):
            if (k >> j) & 1:
                pushed |= 1 << i
        forward.add(pushed)
    injective = len(set(ind.map)) == len(ind.map)
    return injective and forward == {k & image for k in ref_s.closed}


_reference = lru_cache(maxsize=None)(ReferenceLattice)


def test_closed_family_matches_fixpoint_reference(small_semirings):
    """The inclusion-order core against the fixpoint lattice, on every
    point set of every spectrum of every semiring of order <= 4 and the
    catalog, over all eight classes."""
    for s in small_semirings:
        for tag in ALL_TAGS:
            spec = spectrum(s, tag)
            ref = _reference(spec)
            where = (s.id, tag)
            assert ref.closed == [
                k for k in range(1 << spec.size) if _up_closed(spec.points, k)
            ], where
            for k in range(1 << spec.size):
                assert (spec.closure(k) == k) == (k in ref.closed_set), (where, k)
                assert spec.closure(k) == ref.closure(k), (where, k)
            assert closed_set_count(spec) == len(ref.closed), where
            assert list(spec.irreducible_closed_sets()) == ref.irreducible_closed_sets(), where
            if spec.size:
                clopen = ref.clopen_witness()
                expected = None if clopen is None else point_set_members(spec, clopen)
                assert check_connected(spec)["connected_witness"] == expected, where
            sides = strong_disconnection_witness(spec)
            assert sides == ref.disconnection_sides(), where


def _one_point_flipped(spec):
    """Spaces equal to ``spec`` except that one ideal's up-set has one
    point flipped in or out.  Each is a fresh copy whose ``subbasis`` is
    stored before any other closed-set property is derived from it."""
    for m in sorted(spec.subbasis):
        for i in range(spec.size):
            subbasis = dict(spec.subbasis)
            subbasis[m] ^= 1 << i
            flipped = Spectrum(spec.semiring, spec.points)
            flipped.__dict__["subbasis"] = subbasis
            yield flipped


def test_upset_checks_match_per_class_reference(small_semirings, catalog_semirings):
    """verify_upset_laws and check_quasi_compact, which read the cached
    ideal algebra, return the same dicts as the per-class references in
    conftest: on every spectrum of the catalog and the semirings of order
    <= 4, and, so that failing laws and witnesses are compared too, on
    the catalog and the order <= 3 semirings with one point of one up-set
    flipped.  check_irreducible_upsets equals its per-point reference on
    every space, holds on every true space and fails on some flipped
    ones."""
    failures = Counter()
    flipped_corpus = {s.id for s in catalog_semirings}
    for s in small_semirings:
        for tag in ALL_TAGS:
            variants = [spectrum(s, tag)]
            if s.n <= 3 or s.id in flipped_corpus:
                variants.extend(_one_point_flipped(variants[0]))
            for spec in variants:
                where = (s.id, tag, spec.subbasis)
                laws = reference_upset_laws(spec)
                assert verify_upset_laws(spec) == laws, where
                qc = reference_quasi_compact(spec)
                assert check_quasi_compact(spec) == qc, where
                irreducible_check = check_irreducible_upsets(spec)
                assert irreducible_check == reference_irreducible_upsets(spec), where
                irreducible = irreducible_check["irreducible_upsets"]
                assert irreducible or spec is not variants[0], where
                if laws["upset_laws"] != "pass":
                    failures[laws["upset_laws"]["law"]] += 1
                failures["generator identity"] += laws["generator_upset_witness"] is not None
                failures["qc sum identity"] += not qc["quasi_compact_sum_identity"]
                failures["qc maximal rule"] += not qc["quasi_compact_maximal_rule"]
                failures["irreducible_upsets"] += not irreducible
    reached = {law for law, count in failures.items() if count}
    assert reached >= {
        "zero-full",
        "improper-empty",
        "antitone",
        "sum-identity",
        "radical-spectrum-equivalence",
        "generator identity",
        "qc sum identity",
        "qc maximal rule",
        "irreducible_upsets",
    }, failures


def test_topology_reports_build_ideal_algebra_once(catalog_semirings, monkeypatch):
    """Over the catalog plus orders 1-3, a semiring's topology reports
    under all eight classes and its ideal-lattice report build its ideal
    algebra (the one ``_kernels.ideal_masks`` call) once, for one class as
    for eight.  The caches are keyed on the tables, and a cached space may
    carry another semiring with the same tables (``B/{0}`` has ``B``'s),
    so builds are counted per table pair and the spaces are built
    afresh."""
    calls = Counter()
    real = iseki._kernels.ideal_masks

    def counting(add, mul):
        calls[add, mul] += 1
        return real(add, mul)

    monkeypatch.setattr(iseki._kernels, "ideal_masks", counting)
    corpus = list(catalog_semirings)
    for n in range(1, 4):
        corpus.extend(enumerate_semirings(n, up_to_iso=True))
    for s in corpus:
        classified_ideals(s)  # classification is cached apart from the algebra
        per_classes = []
        for classes in (ALL_TAGS[:1], ALL_TAGS):
            ideal_algebra.cache_clear()
            _closed_family_cached.cache_clear()
            calls.clear()
            for cls in classes:
                topology_instance_report(s, cls)
            per_classes.append(calls[s.add, s.mul])
        assert per_classes == [1, 1], (s.id, per_classes)
        ideal_lattice_report(s)
        assert ideal_algebra.cache_info().misses == 1, s.id
        assert calls[s.add, s.mul] == 1, s.id


def test_quotient_homeomorphism_matches_fixpoint_reference(small_semirings):
    """The order-embedding test against the subspace-lattice definition,
    for every Bourne quotient map and every surjective homomorphism from a
    corpus semiring onto one per isomorphism class of the corpus (the
    corpus holds every relabeling of its small targets, and relabeling the
    target only reorders its spectrum), under every class with the
    contraction property.  The map is a homeomorphism onto its image
    exactly when it is continuous (``check_surjection``)."""
    targets = {}
    for t in small_semirings:
        targets.setdefault(canonical_key(t.add, t.mul), t)
    maps = []
    for s in small_semirings:
        for ideal in _proper_ideal_masks(s):
            maps.append((s, *bourne_quotient(s, ideal)))
        for t in targets.values():
            if t.n <= s.n:
                maps.extend(
                    (s, t, hom)
                    for hom in enumerate_homomorphisms(s, t)
                    if len(set(hom)) == t.n
                )
    for s, t, hom in maps:
        for tag in ALL_TAGS:
            try:
                ind = induced_map(s, t, hom, tag)
            except ContractionFails:
                continue
            expected = _reference_onto_image(
                _reference(ind.spec_s), _reference(ind.spec_t), ind
            )
            assert ind.continuous == expected, (s.id, t.id, hom, tag)


def test_proper_spectrum_above_twenty_points():
    """38 points: the proper ideals of ``atoms5`` are {0}, {0, atom} and
    {0, t} with any set of atoms; the 8699 up-sets are 1 + the sum of
    2^(number of atoms whose singleton up-set lies in V) over the 7581
    up-sets V of the atom subsets."""
    rep = topology_instance_report(atoms(5), "proper")
    assert len(rep["points"]) == 38
    assert closed_set_count(spectrum(atoms(5), "proper")) == 8699
    assert rep["t0_witness"] is None and rep["sober_criterion"]
    assert rep["connected_witness"] is None
    assert rep["upset_laws"] == "pass"


def test_closed_families(boolean, bb, c3):
    def closed_sets(spec):
        return tuple(k for k in range(1 << spec.size) if spec.closure(k) == k)

    one_point = spectrum(boolean, "prime")
    assert closed_sets(one_point) == (0, 1)
    assert closed_set_count(one_point) == 2
    discrete = spectrum(bb, "maximal")
    assert closed_sets(discrete) == (0, 1, 2, 3)
    assert closed_set_count(discrete) == 4
    sierpinski = spectrum(c3, "prime")
    assert closed_sets(sierpinski) == (0, 2, 3)
    assert closed_set_count(sierpinski) == 3


def test_closure_examples(c3):
    spec = spectrum(c3, "prime")
    assert spec.closure(0) == 0
    assert spec.closure(spec.full) == spec.full
    for i, p in enumerate(spec.points):
        assert spec.closure(1 << i) == up_set(spec, p)


def test_t0_on_catalog(catalog_semirings):
    for s in catalog_semirings:
        for tag in ALL_TAGS:
            assert check_t0(spectrum(s, tag))["t0_witness"] is None, (s.id, tag)


def test_t1_examples(bb, c3, trivial):
    """The T1 witness is the first point whose closure is more than
    itself: in C3's prime spectrum {0} lies below {0, 1}."""
    r = check_t1(spectrum(bb, "maximal"))
    assert r["t1_witness"] is None and r["t1_predicate"]
    r = check_t1(spectrum(c3, "prime"))
    assert r["t1_witness"] == [0] and not r["t1_predicate"]
    spec = spectrum(trivial, "prime")
    r = check_t1(spec)
    assert r["t1_witness"] is None and r["t1_predicate"] and spec.size == 0


@pytest.mark.xfail(
    strict=True,
    reason="known defect of the t1_equivalence row: fg(0) on C3 is T1, its "
    "one point being {0}, but {0} is not maximal, so 'points = maximal "
    "ideals' is false. The row fix (compare only on spectra that hold "
    "every maximal ideal) waits for a benchmark change: it drops 3 "
    "principal-class instances from the enumerate4 tallies in "
    "perfbench/expected.json",
)
def test_t1_equivalence_fg0_c3(c3, tmp_path):
    """``iseki topology`` on C3 with ``--class fg(0)`` should exit 0."""
    path = tmp_path / "c3.json"
    emit(path, c3)
    out = tmp_path / "report.json"
    assert main(["topology", str(path), "--class", "fg(0)", "--out", str(out)]) == 0


def test_sober_examples(bb, c3, z4, catalog_semirings):
    """Direct sobriety is T0 here (``check_sober``): no ``t0_witness``."""
    assert check_t0(spectrum(bb, "maximal"))["t0_witness"] is None
    assert check_t0(spectrum(c3, "prime"))["t0_witness"] is None
    assert check_t0(spectrum(z4, "prime"))["t0_witness"] is None
    for s in catalog_semirings:
        for tag in ("proper", "prime", "strongly-irreducible"):
            spec = spectrum(s, tag)
            assert check_t0(spec)["t0_witness"] is None, (s.id, tag)
            assert check_sober(spec)["sober_criterion"], (s.id, tag)


def test_sober_agreement_everywhere(catalog_semirings):
    """Sobriety from its definition, every irreducible closed set the
    closure of exactly one point, is T0 (no ``t0_witness``), and agrees
    with the generic-point criterion."""
    for s in catalog_semirings:
        for tag in ALL_TAGS:
            spec = spectrum(s, tag)
            sober = all(spec.up.count(u) == 1 for u in spec.irreducible_closed_sets())
            assert sober == (check_t0(spec)["t0_witness"] is None), (s.id, tag)
            assert sober == check_sober(spec)["sober_criterion"], (s.id, tag)


def test_quasi_compact_mechanism(bb, catalog_semirings):
    """On B x B's maximal spectrum, which holds every maximal ideal, some
    pairs of proper ideals have an empty up-set intersection, and their
    sum is improper, as the maximal rule over single ideals and the pair
    lemma say."""
    spec = spectrum(bb, "maximal")
    rep = check_quasi_compact(spec)
    assert rep["quasi_compact_sum_identity"]
    assert set(spec.points) == set(maximal_ideal_masks(bb))
    assert rep["quasi_compact_maximal_rule"]
    generated = ideal_algebra(bb).generated
    empty_pairs = [
        (a, b)
        for a, b in combinations(_proper_ideal_masks(bb), 2)
        if spec.subbasis[a] & spec.subbasis[b] == 0
    ]
    assert empty_pairs
    assert all(generated(a | b) == bb.full_mask for a, b in empty_pairs)
    for s in catalog_semirings:
        if s.n > 4:
            continue
        for tag in ALL_TAGS:
            rep = check_quasi_compact(spectrum(s, tag))
            assert rep["quasi_compact_sum_identity"], (s.id, tag)
            assert rep["quasi_compact_maximal_rule"], (s.id, tag)


def test_connected_examples(bb, c3, boolean):
    """The witness of a disconnected space is its lowest component: in
    B x B's maximal spectrum, the point {0, 1} alone."""
    assert check_connected(spectrum(bb, "maximal"))["connected_witness"] == [[0, 1]]
    assert check_connected(spectrum(c3, "prime"))["connected_witness"] is None
    assert check_connected(spectrum(boolean, "prime"))["connected_witness"] is None


def test_connected_when_zero_ideal_present(catalog_semirings):
    for s in catalog_semirings:
        for tag in ALL_TAGS + ("fg(1)", "fg(2)"):
            spec = spectrum(s, tag)
            if 1 in spec.points:
                assert check_connected(spec)["connected_witness"] is None, (s.id, tag)


def test_degenerate_empty_spectrum(trivial):
    """An empty space has no components, so it is connected, and no
    points, so it is T0."""
    spec = spectrum(trivial, "prime")
    assert spec.size == 0
    assert check_connected(spec)["connected_witness"] is None
    assert check_t0(spec)["t0_witness"] is None
    assert check_sober(spec)["sober_criterion"]


def test_irreducible_upsets_everywhere(catalog_semirings):
    for s in catalog_semirings:
        for tag in ALL_TAGS:
            assert check_irreducible_upsets(spectrum(s, tag))["irreducible_upsets"], (
                s.id,
                tag,
            )


def test_upset_laws_everywhere(catalog_semirings):
    for s in catalog_semirings:
        if s.n > 4:
            continue
        for tag in ALL_TAGS:
            rep = verify_upset_laws(spectrum(s, tag))
            assert rep["upset_laws"] == "pass", (s.id, tag, rep)
            assert rep["generator_upset_witness"] is None, (s.id, tag, rep)


def test_upset_laws_item5_forward(z4):
    """In the Z4 prime spectrum every point is radical, so up-sets must be
    radical-stable; the zero ideal and its radical {0,2} share an up-set."""
    spec = spectrum(z4, "prime")
    assert up_set(spec, ideal_from_members(z4, [0])) == up_set(
        spec, ideal_from_members(z4, [0, 2])
    )


def test_disconnection_witness_examples(bb, c3, boolean):
    w = strong_disconnection_witness(spectrum(bb, "maximal"))
    assert w is not None
    sides = {tuple(mask_members(bb, i)) for side in w for i in side}
    assert sides == {(0, 1), (0, 2)}
    assert strong_disconnection_witness(spectrum(c3, "prime")) is None
    assert strong_disconnection_witness(spectrum(boolean, "prime")) is None


def test_idempotent_extraction_bb(bb):
    spec = spectrum(bb, "maximal")
    w = strong_disconnection_witness(spec)
    e = idempotent_from_disconnection(spec, w)
    assert e in (1, 2)  # the pairs (0,1) and (1,0)
    assert bb.mul[e][e] == e


def test_idempotent_hypothesis_no_witness(z4):
    spec = spectrum(z4, "prime")
    with pytest.raises(HypothesisUnmet) as err:
        idempotent_from_disconnection(spec, None)
    assert err.value.hypothesis == "witness"


def test_idempotent_hypothesis_jacobson(z4, boolean):
    """Z4 x B has two maximal ideals with nonzero intersection, so the
    maximal spectrum disconnects but the Jacobson hypothesis fails."""
    zb = direct_product(z4, boolean)
    spec = spectrum(zb, "maximal")
    w = strong_disconnection_witness(spec)
    assert w is not None
    with pytest.raises(HypothesisUnmet) as err:
        idempotent_from_disconnection(spec, w)
    assert err.value.hypothesis == "jacobson"


def test_idempotent_hypothesis_maximal_containment(bb, boolean):
    """A two-maximal slice of the three maximals of B^3 still disconnects,
    but the containment hypothesis fails."""
    bbb = direct_product(bb, boolean)
    maximals = spectrum(bbb, "maximal").points
    assert len(maximals) == 3
    spec = Spectrum(semiring=bbb, points=maximals[:2])
    w = strong_disconnection_witness(spec)
    assert w is not None
    with pytest.raises(HypothesisUnmet) as err:
        idempotent_from_disconnection(spec, w)
    assert err.value.hypothesis == "maximal-containment"


def test_idempotent_reduces_multi_ideal_sides(bb, boolean):
    """A side of two ideals is reduced to their product before 1 is
    decomposed across the sides: on the prime spectrum of B^3, from either
    side of the witness."""
    bbb = direct_product(bb, boolean)
    spec = spectrum(bbb, "prime")
    p0, p1, p2 = spec.points
    points = [mask_members(bbb, p) for p in spec.points]
    assert points == [[0, 1, 2, 3], [0, 1, 4, 5], [0, 2, 4, 6]]
    for left, right, expected in (([p0], [p1, p2], 3), ([p1, p2], [p0], 4)):
        e = idempotent_from_disconnection(spec, (left, right))
        assert e == expected
        assert e in nontrivial_idempotents(bbb)
        witness = {
            "left": [mask_members(bbb, a) for a in left],
            "right": [mask_members(bbb, b) for b in right],
        }
        assert verify_disconnection_witness(bbb, points, witness)


def test_idempotent_bad_witness_rejected(bb):
    """A witness whose sides do not partition the given spectrum is refused."""
    spec = Spectrum(semiring=bb, points=(ideal_from_members(bb, [0, 1]),))
    full = spectrum(bb, "maximal")
    w = strong_disconnection_witness(full)
    with pytest.raises(HypothesisUnmet) as err:
        idempotent_from_disconnection(spec, w)
    assert err.value.hypothesis == "witness"


def test_idempotent_non_ideal_witness_rejected(bb):
    """A side holding a mask that is not an ideal of the space's semiring is
    refused before any up-set is looked up: {0, 3} holds the unit of B x B
    but not all of it, and bit 4 is not an element."""
    spec = spectrum(bb, "maximal")
    left, right = strong_disconnection_witness(spec)
    for bad in (ideal_from_members(bb, [0, 3]), 1 | 1 << bb.n):
        for witness in (([bad], right), (left, right + [bad])):
            with pytest.raises(HypothesisUnmet, match="non-ideal") as err:
                idempotent_from_disconnection(spec, witness)
            assert err.value.hypothesis == "witness"


def test_fg1_equals_principal(catalog_semirings):
    for s in catalog_semirings:
        fg1 = spectrum(s, "fg(1)")
        principal = spectrum(s, "principal")
        assert fg1.points == principal.points
