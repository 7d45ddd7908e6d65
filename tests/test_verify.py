"""The independent witness verifier must confirm every negative verdict
the package emits (and refute fabricated ones)."""

import io

import pytest

from iseki.errors import AxiomViolation, ContractionFails
from iseki.ideals import classified_ideals
from iseki.morphisms import enumerate_homomorphisms, induced_map
from iseki.semiring import validate_semiring
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
            bad = verify_classification_witnesses(
                s, list(ideal.members), c.to_json()
            )
            assert bad == [], (s.id, ideal.members, bad)


def test_t1_witnesses(c3, bb):
    spec = spectrum(c3, "prime")
    from iseki.topology import check_t1

    rep = check_t1(c3, spec)
    assert not rep["t1"]
    assert verify_t1_witness(
        c3, [list(p.members) for p in spec.points], rep["t1_witness"]
    )
    # A fabricated witness is refuted.
    mspec = spectrum(bb, "maximal")
    assert not verify_t1_witness(
        bb, [list(p.members) for p in mspec.points], [0, 1]
    )


def test_t0_fabricated_witness_refuted(bb):
    spec = spectrum(bb, "maximal")
    points = [list(p.members) for p in spec.points]
    assert not verify_t0_witness(bb, points, [[0, 1], [0, 2]])


def test_connected_witnesses(bb, c3):
    from iseki.topology import check_connected

    spec = spectrum(bb, "maximal")
    rep = check_connected(bb, spec)
    assert rep["connected"] is False
    points = [list(p.members) for p in spec.points]
    assert verify_connected_false_witness(bb, points, rep["connected_witness"])
    # The Sierpinski space has no valid clopen split.
    cspec = spectrum(c3, "prime")
    cpoints = [list(p.members) for p in cspec.points]
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
            masks = spec.point_masks()
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
            assert spec.closed_set_count() == len(expected), (s.id, tag)


def test_disconnection_witnesses_via_sweep(catalog_semirings):
    for s in catalog_semirings:
        for tag in ("maximal", "prime"):
            spec = spectrum(s, tag)
            w = strong_disconnection_witness(s, spec)
            if w is None:
                continue
            left, right = w
            witness_json = {
                "left": [list(a.members) for a in left],
                "right": [list(b.members) for b in right],
            }
            points = [list(p.members) for p in spec.points]
            assert verify_disconnection_witness(s, points, witness_json), (
                s.id,
                tag,
            )


def test_contraction_witnesses(c3, c4):
    jump = [h for h in enumerate_homomorphisms(c3, c4) if h.map == (0, 3, 3)][0]
    with pytest.raises(ContractionFails) as err:
        induced_map(c3, c4, jump, "maximal")
    witness = err.value.witness
    assert verify_contraction_witness(
        c3, c4, jump.map, witness["point"], witness["preimage"]
    )


def test_kernel_upset_gap_witnesses(c3, boolean):
    collapse = [h for h in enumerate_homomorphisms(c3, boolean) if h.map == (0, 1, 1)][0]
    s_points = [list(p.members) for p in spectrum(c3, "prime").points]
    t_points = [list(p.members) for p in spectrum(boolean, "prime").points]
    assert verify_kernel_upset_gap(c3, boolean, collapse.map, s_points, t_points)
    ident = [h for h in enumerate_homomorphisms(boolean, boolean)][0]
    b_points = [list(p.members) for p in spectrum(boolean, "prime").points]
    assert not verify_kernel_upset_gap(boolean, boolean, ident.map, b_points, b_points)


def test_sweep_observation_witnesses_revalidate(catalog_semirings):
    """Every violation recorded by the sweep's observations re-validates."""
    small = [s for s in catalog_semirings if s.n <= 3]
    report = sweep(corpus=small, log=io.StringIO())
    by_id = {s.id: s for s in small}
    obs = report["observations"]["surjective_image_equals_kernel_upset"]
    assert obs["failures"] > 0  # the known gap shows up even on this corpus
    for witness in obs["witnesses"]:
        s = by_id[witness["source"]]
        t = by_id[witness["target"]]
        s_points = [list(p.members) for p in spectrum(s, "prime").points]
        t_points = [list(p.members) for p in spectrum(t, "prime").points]
        assert verify_kernel_upset_gap(
            s, t, witness["hom"], s_points, t_points
        ), witness
