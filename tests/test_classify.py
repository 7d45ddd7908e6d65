from conftest import atoms, reference_irreducibility

from iseki.errors import ImproperIdeal
from iseki.ideals import (
    _proper_ideal_masks,
    classified_ideals,
    classify,
    ideal_from_members,
    mask_members,
)

import pytest


def test_zero_ideal_of_boolean(boolean):
    c = classify(boolean, ideal_from_members(boolean, [0]))
    assert c.prime and c.maximal and c.radical_ideal
    assert c.strongly_irreducible and c.irreducible and c.principal
    assert c.primary


def test_zero_ideal_of_z4(z4):
    c = classify(z4, ideal_from_members(z4, [0]))
    assert c.primary and not c.prime and not c.radical_ideal
    w = c.witness_dict()
    assert w["prime"] == (2, 2)  # 2*2 = 0 with 2 outside the ideal
    assert w["radical"] == (2,)


def test_zero_ideal_of_bb_not_irreducible(bb):
    c = classify(bb, ideal_from_members(bb, [0]))
    assert not c.irreducible and not c.strongly_irreducible
    w = c.witness_dict()
    assert set(w["irreducible"]) == {(0, 1), (0, 2)}


def test_improper_rejected(boolean):
    with pytest.raises(ImproperIdeal):
        classify(boolean, ideal_from_members(boolean, [0, 1]))


def test_implication_chain_holds_everywhere(catalog_semirings):
    """maximal => prime => primary; prime => strongly irreducible =>
    irreducible.  A violation anywhere is a build-failing bug."""
    for s in catalog_semirings:
        for ideal, c in classified_ideals(s):
            where = (s.id, mask_members(s, ideal))
            assert not c.maximal or c.prime, where
            assert not c.prime or c.primary, where
            assert not c.prime or c.strongly_irreducible, where
            assert not c.strongly_irreducible or c.irreducible, where


def test_principal_iff_one_generator(catalog_semirings):
    for s in catalog_semirings:
        for ideal, c in classified_ideals(s):
            assert c.principal == (c.min_generators <= 1)
            seed = c.witness_dict()["generators"]
            assert len(seed) == c.min_generators


def test_naive_prime_check_agrees(catalog_semirings):
    """Dual route for primeness: direct quantifier over member sets."""
    for s in catalog_semirings:
        if s.n > 6:
            continue
        for ideal, c in classified_ideals(s):
            members = set(mask_members(s, ideal))
            naive = all(
                s.mul[x][y] not in members or x in members or y in members
                for x in range(s.n)
                for y in range(s.n)
            )
            assert naive == c.prime


def test_naive_maximal_check_agrees(catalog_semirings):
    for s in catalog_semirings:
        proper = _proper_ideal_masks(s)
        for ideal, c in classified_ideals(s):
            naive = not any(
                ideal != other and (ideal & other) == ideal for other in proper
            )
            assert naive == c.maximal


def test_irreducibility_matches_pair_search(small_semirings):
    """The lattice decisions of ``classify`` (upper cover, meet of the
    ideals outside a) against the pair search over every two ideals in
    conftest: flags and witnesses, on the catalog, every labeled
    semiring of order <= 4 and atoms1-atoms6."""
    for s in [*small_semirings, *map(atoms, range(1, 7))]:
        for ideal, c in classified_ideals(s):
            irreducible, strongly, witnesses = reference_irreducibility(s, ideal)
            where = (s.id, mask_members(s, ideal))
            assert (c.irreducible, c.strongly_irreducible) == (irreducible, strongly), where
            got = c.witness_dict()
            for key in ("irreducible", "strongly_irreducible"):
                assert got.get(key) == witnesses.get(key), (where, key)
