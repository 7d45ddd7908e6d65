from itertools import combinations

import pytest

from conftest import naive_ideal_sets
from iseki.errors import EmptyFamily, ImproperIdeal
from iseki.ideals import (
    addition_closure,
    all_ideals,
    generated_ideal,
    ideal_algebra,
    ideal_from_mask,
    ideal_from_members,
    intersect_ideals,
    jacobson_radical,
    maximal_cover,
    min_generators,
    product_ideals,
    radical,
    radical_via_primes,
    sum_ideals,
)
from iseki.verify import _generated_set


def test_all_ideals_matches_naive_scan(catalog_semirings):
    """Dual route: bitmask kernel scan versus an independent frozenset scan."""
    for s in catalog_semirings:
        if s.n > 6:
            continue
        expected = [ss for ss in naive_ideal_sets(s) if len(ss) < s.n]
        got = [set(i.members) for i in all_ideals(s, proper_only=True)]
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected)), s.id


def test_ideals_are_ascending_and_deduplicated(catalog_semirings):
    for s in catalog_semirings:
        masks = [i.mask for i in all_ideals(s, proper_only=False)]
        assert masks == sorted(set(masks))
        assert masks[-1] == s.full_mask  # improper top included


def test_generated_ideal_examples(boolean, c3, z4):
    assert generated_ideal(boolean, [0]).members == (0,)
    assert generated_ideal(c3, [1]).members == (0, 1)
    assert generated_ideal(z4, [2]).members == (0, 2)
    assert generated_ideal(z4, []).members == (0,)
    assert not generated_ideal(z4, [1]).is_proper  # 1 generates everything


def test_sum_examples(c3, bb):
    zero = ideal_from_members(c3, [0])
    low = ideal_from_members(c3, [0, 1])
    assert sum_ideals(c3, [zero, low]).members == (0, 1)
    assert sum_ideals(c3, [zero, zero]).members == (0,)
    left = ideal_from_members(bb, [0, 2])
    right = ideal_from_members(bb, [0, 1])
    assert not sum_ideals(bb, [left, right]).is_proper
    with pytest.raises(EmptyFamily):
        sum_ideals(c3, [])


def test_sum_equals_addition_closure_of_union(catalog_semirings):
    """The finite-sums definition agrees with the generated ideal."""
    for s in catalog_semirings:
        ideals = all_ideals(s, proper_only=False)
        for a in ideals:
            for b in ideals:
                total = sum_ideals(s, [a, b])
                assert total.mask == addition_closure(s, a.mask | b.mask)


def test_product_examples(bb, z4, c3):
    left = ideal_from_members(bb, [0, 2])
    right = ideal_from_members(bb, [0, 1])
    assert product_ideals(bb, left, right).members == (0,)
    zero = ideal_from_members(z4, [0])
    m = ideal_from_members(z4, [0, 2])
    assert product_ideals(z4, m, zero).members == (0,)
    assert product_ideals(z4, m, m).members == (0,)  # 2*2 = 0 in Z4
    low = ideal_from_members(c3, [0, 1])
    assert product_ideals(c3, low, low).members == (0, 1)


def test_product_variants_agree(catalog_semirings):
    for s in catalog_semirings:
        ideals = all_ideals(s, proper_only=False)
        for a in ideals:
            for b in ideals:
                gen = product_ideals(s, a, b, variant="generated")
                sums = product_ideals(s, a, b, variant="sums")
                assert gen.mask == sums.mask, (s.id, a.members, b.members)


def test_closure_matches_independent_fixpoint(small_semirings):
    """Lattice-intersection closure versus the element-wise fixpoint in
    iseki.verify, for every seed mask and every pair of ideals."""
    for s in small_semirings:
        for seed in range(1 << s.n):
            members = [e for e in range(s.n) if (seed >> e) & 1]
            expected = _generated_set(s, members)
            assert generated_ideal(s, members).member_set() == expected, (s.id, seed)
            low = seed & -seed
            parts = [ideal_from_mask(s, low), ideal_from_mask(s, seed ^ low)]
            assert sum_ideals(s, parts).member_set() == expected, (s.id, seed)
        ideals = all_ideals(s, proper_only=False)
        for a in ideals:
            for b in ideals:
                products = {s.mul[x][y] for x in a.members for y in b.members}
                expected = _generated_set(s, products)
                for variant in ("generated", "sums"):
                    got = product_ideals(s, a, b, variant=variant).member_set()
                    assert got == expected, (s.id, a.members, b.members, variant)


def test_ideal_algebra_matches_ideal_operations(small_semirings):
    """Every mask of the cached ideal algebra against the operation it
    stands for: principal ideals, pair sums, both product variants,
    radicals, and the sums of every family of one to three ideals."""
    for s in small_semirings:
        algebra = ideal_algebra(s)
        ideals = all_ideals(s, proper_only=False)
        assert algebra.masks == tuple(a.mask for a in ideals), s.id
        assert algebra.principals == tuple(
            generated_ideal(s, [g]).mask for g in range(s.n)
        ), s.id
        for a in ideals:
            assert algebra.radicals[a.mask] == radical(s, a).mask, (s.id, a)
            for b in ideals:
                where = (s.id, a, b)
                assert algebra.sums[a.mask][b.mask] == sum_ideals(s, [a, b]).mask, where
                for variant in ("generated", "sums"):
                    product = product_ideals(s, a, b, variant=variant).mask
                    assert algebra.products[a.mask][b.mask] == product, (where, variant)
        for size in range(1, 4):
            assert algebra.family_sums(size) == tuple(
                sum_ideals(s, family).mask for family in combinations(ideals, size)
            ), (s.id, size)


def test_intersection_examples(c3, bb):
    low = ideal_from_members(c3, [0, 1])
    zero = ideal_from_members(c3, [0])
    assert intersect_ideals(c3, [low, zero]).members == (0,)
    assert intersect_ideals(c3, [low, low]).members == (0, 1)
    left = ideal_from_members(bb, [0, 2])
    right = ideal_from_members(bb, [0, 1])
    assert intersect_ideals(bb, [left, right]).members == (0,)
    with pytest.raises(EmptyFamily):
        intersect_ideals(c3, [])


def test_radical_examples(z4, boolean):
    assert radical(z4, ideal_from_members(z4, [0])).members == (0, 2)
    assert radical(boolean, ideal_from_members(boolean, [0])).members == (0,)


def test_radical_is_idempotent_and_monotone(catalog_semirings):
    for s in catalog_semirings:
        for a in all_ideals(s, proper_only=False):
            r = radical(s, a)
            assert (a.mask & r.mask) == a.mask
            assert radical(s, r).mask == r.mask


def test_radical_agrees_with_prime_intersection(catalog_semirings):
    for s in catalog_semirings:
        for a in all_ideals(s, proper_only=False):
            assert radical(s, a).mask == radical_via_primes(s, a).mask, (
                s.id,
                a.members,
            )


def test_radical_via_primes_examples(z4, bb):
    assert radical_via_primes(z4, ideal_from_members(z4, [0])).members == (0, 2)
    assert radical_via_primes(bb, ideal_from_members(bb, [0])).members == (0,)


def test_jacobson_examples(bb, z4, c3, trivial):
    assert jacobson_radical(bb).members == (0,)
    assert jacobson_radical(z4).members == (0, 2)
    assert jacobson_radical(c3).members == (0, 1)
    assert not jacobson_radical(trivial).is_proper


def test_maximal_cover_examples(c3, bb, trivial):
    assert maximal_cover(c3, ideal_from_members(c3, [0])).members == (0, 1)
    m = ideal_from_members(c3, [0, 1])
    assert maximal_cover(c3, m).members == (0, 1)
    # Two candidates in B x B; the lower bitset {0}xB = {0,1} wins.
    assert maximal_cover(bb, ideal_from_members(bb, [0])).members == (0, 1)
    # In the trivial semiring {0} is already the whole semiring, so the
    # improper guard fires before NoMaximalIdeal can (the latter is
    # unreachable for valid finite inputs and stays as a defensive error).
    with pytest.raises(ImproperIdeal):
        maximal_cover(trivial, ideal_from_members(trivial, [0]))
    with pytest.raises(ImproperIdeal):
        maximal_cover(c3, ideal_from_members(c3, [0, 1, 2]))


def test_min_generators(z4, bb):
    assert min_generators(z4, ideal_from_members(z4, [0])) == (0, ())
    assert min_generators(z4, ideal_from_members(z4, [0, 2])) == (1, (2,))
    count, seed = min_generators(bb, ideal_from_members(bb, [0, 1]))
    assert count == 1 and seed == (1,)
