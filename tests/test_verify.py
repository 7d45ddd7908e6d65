"""The independent witness verifier must confirm every negative verdict
the package emits (and refute fabricated ones)."""

import io

import pytest
from conftest import closed_set_count

from iseki.errors import AxiomViolation, ContractionFails
from iseki.ideals import classified_ideals, ideal_from_members, mask_members
from iseki.morphisms import enumerate_homomorphisms, induced_map
from iseki.semiring import bourne_quotient, validate_semiring
from iseki.sweep import sweep
from iseki.topology import spectrum, strong_disconnection_witness
from iseki.verify import (
    verify_axiom_witness,
    verify_classification_witnesses,
    verify_connected_false_witness,
    verify_contraction_witness,
    verify_disconnection_witness,
    verify_kernel_upset_gap,
    verify_t0_witness,
    verify_t1_witness,
)


def test_axiom_witnesses_are_pluggable(z4):
    for i in range(4):
        for j in range(4):
            for v in range(4):
                if v == z4.mul[i][j]:
                    continue
                mutated = [list(row) for row in z4.mul]
                mutated[i][j] = v
                try:
                    validate_semiring(z4.add, mutated, 1)
                except AxiomViolation as exc:
                    assert verify_axiom_witness(
                        z4.add, mutated, 1, exc.axiom, exc.witness
                    ), (exc.axiom, exc.witness)


def test_classification_witnesses_on_catalog(catalog_semirings):
    for s in catalog_semirings:
        for ideal, c in classified_ideals(s):
            members = mask_members(s, ideal)
            bad = verify_classification_witnesses(s, members, c.to_json())
            assert bad == [], (s.id, members, bad)


def test_t1_witnesses(c3, bb):
    spec = spectrum(c3, "prime")
    from iseki.topology import check_t1

    rep = check_t1(spec)
    assert rep["t1_witness"] is not None
    assert verify_t1_witness(c3, spec.to_json()["points"], rep["t1_witness"])
    # A fabricated witness is refuted.
    mspec = spectrum(bb, "maximal")
    assert not verify_t1_witness(bb, mspec.to_json()["points"], [0, 1])


def test_t0_fabricated_witness_refuted(bb):
    spec = spectrum(bb, "maximal")
    points = spec.to_json()["points"]
    assert not verify_t0_witness(bb, points, [[0, 1], [0, 2]])


def test_connected_witnesses(bb, c3):
    from iseki.topology import check_connected

    spec = spectrum(bb, "maximal")
    rep = check_connected(spec)
    assert rep["connected_witness"] is not None
    points = spec.to_json()["points"]
    assert verify_connected_false_witness(bb, points, rep["connected_witness"])
    # The Sierpinski space has no valid clopen split.
    cspec = spectrum(c3, "prime")
    cpoints = cspec.to_json()["points"]
    assert not verify_connected_false_witness(bb, cpoints, [[0]])


def test_closed_family_equals_up_closed_sets(catalog_semirings):
    """Independent oracle for the closed-set test: with the full ideal
    subbasis, the closed sets are exactly the point-sets that are
    up-closed under ideal inclusion."""
    for s in catalog_semirings:
        if s.n > 4:
            continue
        for tag in ("proper", "prime", "maximal", "radical"):
            spec = spectrum(s, tag)
            masks = spec.points
            expected = []
            for candidate in range(1 << len(masks)):
                ok = all(
                    (candidate >> j) & 1
                    for i in range(len(masks))
                    if (candidate >> i) & 1
                    for j in range(len(masks))
                    if (masks[i] & masks[j]) == masks[i]
                )
                if ok:
                    expected.append(candidate)
            got = [k for k in range(1 << len(masks)) if spec.closure(k) == k]
            assert got == expected, (s.id, tag)
            assert closed_set_count(spec) == len(expected), (s.id, tag)


def test_disconnection_witnesses_via_sweep(catalog_semirings):
    for s in catalog_semirings:
        for tag in ("maximal", "prime"):
            spec = spectrum(s, tag)
            w = strong_disconnection_witness(spec)
            if w is None:
                continue
            left, right = w
            witness_json = {
                "left": [mask_members(s, a) for a in left],
                "right": [mask_members(s, b) for b in right],
            }
            points = spec.to_json()["points"]
            assert verify_disconnection_witness(s, points, witness_json), (
                s.id,
                tag,
            )


def test_contraction_witnesses(c3, c4):
    jump = (0, 3, 3)
    assert jump in enumerate_homomorphisms(c3, c4)
    with pytest.raises(ContractionFails) as err:
        induced_map(c3, c4, jump, "maximal")
    witness = err.value.witness
    assert verify_contraction_witness(
        c3, c4, jump, witness["point"], witness["preimage"]
    )


def test_kernel_upset_gap_witnesses(c3, boolean):
    collapse = (0, 1, 1)
    assert collapse in enumerate_homomorphisms(c3, boolean)
    s_points = spectrum(c3, "prime").to_json()["points"]
    t_points = spectrum(boolean, "prime").to_json()["points"]
    assert verify_kernel_upset_gap(c3, boolean, collapse, s_points, t_points)
    [ident] = enumerate_homomorphisms(boolean, boolean)
    b_points = spectrum(boolean, "prime").to_json()["points"]
    assert not verify_kernel_upset_gap(boolean, boolean, ident, b_points, b_points)


def _splits_image_and_kernel_upset(s, t, hom_map, s_points, t_points, point):
    """Whether ``point``, a listed point of s, lies in exactly one of the
    induced image (the preimages of the listed points of t) and the
    kernel's up-set, recomputed with raw set logic."""
    ker = {a for a in range(s.n) if hom_map[a] == 0}
    image = [{a for a in range(s.n) if hom_map[a] in set(q)} for q in t_points]
    p = set(point)
    return point in s_points and (p in image) != (ker <= p)


def test_sweep_observation_witnesses_revalidate(catalog_semirings, enum4_10):
    """Every violation recorded by the sweep's observations re-validates,
    and each named ``kernel_upset_gap`` point lies in exactly one of the
    image and the kernel's up-set.  So does the point of the quotient
    witness on enum4-10 mod {0, 3}, the order-4 sweep's first failure."""
    small = [s for s in catalog_semirings if s.n <= 3]
    report = sweep(corpus=small, log=io.StringIO())
    by_id = {s.id: s for s in small}
    obs = report["observations"]["surjective_image_equals_kernel_upset"]
    assert obs["failures"] > 0  # the known gap shows up even on this corpus
    for witness in obs["witnesses"]:
        s = by_id[witness["source"]]
        t = by_id[witness["target"]]
        s_points = spectrum(s, "prime").to_json()["points"]
        t_points = spectrum(t, "prime").to_json()["points"]
        assert verify_kernel_upset_gap(
            s, t, witness["hom"], s_points, t_points
        ), witness
        assert _splits_image_and_kernel_upset(
            s, t, witness["hom"], s_points, t_points, witness["witness"]
        ), witness

    ideal = [0, 3]
    report = sweep(corpus=[enum4_10], log=io.StringIO())
    first = report["tallies"]["quotient_kernel_homeomorphism"]["witnesses"][0]
    assert (first["semiring"], first["ideal"]) == ("enum4-10", ideal)
    cls, point = first["witness"]["class"], first["witness"]["point"]
    assert cls == "prime" and point is not None
    quotient, qmap = bourne_quotient(enum4_10, ideal_from_members(enum4_10, ideal))
    s_points = spectrum(enum4_10, cls).to_json()["points"]
    q_points = spectrum(quotient, cls).to_json()["points"]
    assert _splits_image_and_kernel_upset(enum4_10, quotient, qmap, s_points, q_points, point)
