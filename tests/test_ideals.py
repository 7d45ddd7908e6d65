from functools import reduce
from itertools import combinations

from conftest import (
    naive_ideal_sets,
    reference_generated,
    reference_product,
    reference_radical,
    reference_sum,
)
from iseki.enumeration import enumerate_semirings
from iseki.ideals import (
    _close,
    _ideal_masks_all,
    _proper_ideal_masks,
    ideal_algebra,
    ideal_from_members,
    is_ideal_mask,
    jacobson_radical,
    mask_members,
    min_generators,
    radical_via_primes,
)
def test_proper_ideal_masks_match_naive_scan(catalog_semirings):
    """Dual route: bitmask kernel scan versus an independent frozenset scan."""
    for s in catalog_semirings:
        if s.n > 6:
            continue
        expected = [ss for ss in naive_ideal_sets(s) if len(ss) < s.n]
        got = [mask_members(s, m) for m in _proper_ideal_masks(s)]
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected)), s.id


def test_ideals_are_ascending_and_deduplicated(catalog_semirings):
    for s in catalog_semirings:
        masks = list(_ideal_masks_all(s))
        assert masks == sorted(set(masks))
        assert masks[-1] == s.full_mask  # improper top included


def test_generated_ideal_examples(boolean, c3, z4):
    def generated(s, seed):
        return mask_members(s, _close(s, ideal_from_members(s, seed)))

    assert generated(boolean, [0]) == [0]
    assert generated(c3, [1]) == [0, 1]
    assert generated(z4, [2]) == [0, 2]
    assert generated(z4, []) == [0]
    assert generated(z4, [1]) == [0, 1, 2, 3]  # 1 generates everything


def _addition_closure(s, mask):
    """Closure of a subset mask (plus 0) under addition only: the finite
    sums of its elements."""
    mask |= 1
    while True:
        members = mask_members(s, mask)
        grown = mask
        for a in members:
            for b in members:
                grown |= 1 << s.add[a][b]
        if grown == mask:
            return mask
        mask = grown


def test_sum_examples(c3, bb):
    sums = ideal_algebra(c3).sums
    zero = ideal_from_members(c3, [0])
    low = ideal_from_members(c3, [0, 1])
    assert sums[zero][low] == low
    assert sums[zero][zero] == zero
    left = ideal_from_members(bb, [0, 2])
    right = ideal_from_members(bb, [0, 1])
    assert ideal_algebra(bb).sums[left][right] == bb.full_mask


def test_sum_equals_addition_closure_of_union(catalog_semirings):
    """The sum table agrees with the finite-sums definition: the sums of
    an element of one ideal and an element of the other."""
    for s in catalog_semirings:
        algebra = ideal_algebra(s)
        for a in algebra.masks:
            for b in algebra.masks:
                assert algebra.sums[a][b] == _addition_closure(s, a | b), (s.id, a, b)


def test_product_examples(bb, z4, c3):
    left = ideal_from_members(bb, [0, 2])
    right = ideal_from_members(bb, [0, 1])
    assert ideal_algebra(bb).products[left][right] == 0b1
    products = ideal_algebra(z4).products
    zero = ideal_from_members(z4, [0])
    m = ideal_from_members(z4, [0, 2])
    assert products[m][zero] == zero
    assert products[m][m] == zero  # 2*2 = 0 in Z4
    low = ideal_from_members(c3, [0, 1])
    assert ideal_algebra(c3).products[low][low] == low


def test_product_variants_agree(catalog_semirings):
    """The product table, the ideal generated by the element products,
    agrees with the finite-sums definition: the finite sums of those
    products, which already absorb multiplication."""
    for s in catalog_semirings:
        algebra = ideal_algebra(s)
        for a in algebra.masks:
            for b in algebra.masks:
                pairs = 0
                for x in mask_members(s, a):
                    for y in mask_members(s, b):
                        pairs |= 1 << s.mul[x][y]
                assert algebra.products[a][b] == _addition_closure(s, pairs), (s.id, a, b)


def test_closure_matches_independent_fixpoint(small_semirings):
    """Lattice-intersection closure versus the element-wise fixpoint in
    iseki.verify, for every seed mask."""
    for s in small_semirings:
        for seed in range(1 << s.n):
            assert _close(s, seed) == reference_generated(s, seed), (s.id, seed)


def test_ideal_algebra_matches_ideal_operations(small_semirings):
    """Every field of the cached ideal algebra against the references in
    conftest, which build on the element-wise fixpoint ``_generated_set``
    and the power lists ``_powers`` of iseki.verify: the ideal masks,
    principal ideals, pair sums, products, the sums of every family of one
    to three ideals, and radicals."""
    for s in small_semirings:
        algebra = ideal_algebra(s)
        masks = tuple(sorted(sum(1 << e for e in ss) for ss in naive_ideal_sets(s)))
        assert algebra.masks == masks, s.id
        assert algebra.principals == tuple(
            reference_generated(s, 1 << g) for g in range(s.n)
        ), s.id
        for a in masks:
            assert algebra.radicals[a] == reference_radical(s, a), (s.id, a)
            for b in masks:
                where = (s.id, a, b)
                assert algebra.sums[a][b] == reference_sum(s, (a, b)), where
                assert algebra.products[a][b] == reference_product(s, a, b), where
        for size in range(1, 4):
            for family in combinations(masks, size):
                total = reduce(lambda acc, b: algebra.sums[acc][b], family)
                assert total == reference_sum(s, family), (s.id, family)


def test_intersection_examples(c3, bb, catalog_semirings):
    """The intersection of two ideals is the AND of their masks, and it is
    an ideal: the premise of the closure in iseki.ideals."""
    low = ideal_from_members(c3, [0, 1])
    zero = ideal_from_members(c3, [0])
    assert low & zero == zero
    left = ideal_from_members(bb, [0, 2])
    right = ideal_from_members(bb, [0, 1])
    assert left & right == 0b1
    for s in catalog_semirings:
        masks = ideal_algebra(s).masks
        for a in masks:
            for b in masks:
                assert is_ideal_mask(s, a & b), (s.id, a, b)


def test_radical_examples(z4, boolean):
    zero = ideal_from_members(z4, [0])
    assert ideal_algebra(z4).radicals[zero] == ideal_from_members(z4, [0, 2])
    assert ideal_algebra(boolean).radicals[0b1] == 0b1


def test_radical_is_idempotent_and_monotone(catalog_semirings):
    for s in catalog_semirings:
        radicals = ideal_algebra(s).radicals
        for a, r in radicals.items():
            assert (a & r) == a
            assert radicals[r] == r
            for b, rb in radicals.items():
                if (a & b) == a:
                    assert (r & rb) == r, (s.id, a, b)


def test_radical_agrees_with_prime_intersection(catalog_semirings):
    for s in catalog_semirings:
        radicals = ideal_algebra(s).radicals
        for a in _ideal_masks_all(s):
            assert radicals[a] == radical_via_primes(s, a), (s.id, mask_members(s, a))


def test_radical_via_primes_examples(z4, bb):
    zero = ideal_from_members(z4, [0])
    assert mask_members(z4, radical_via_primes(z4, zero)) == [0, 2]
    zero = ideal_from_members(bb, [0])
    assert mask_members(bb, radical_via_primes(bb, zero)) == [0]


def test_jacobson_examples(bb, z4, c3, trivial):
    assert mask_members(bb, jacobson_radical(bb)) == [0]
    assert mask_members(z4, jacobson_radical(z4)) == [0, 2]
    assert mask_members(c3, jacobson_radical(c3)) == [0, 1]
    assert jacobson_radical(trivial) == trivial.full_mask


def test_min_generators(z4, bb):
    assert min_generators(z4, ideal_from_members(z4, [0])) == (0, ())
    assert min_generators(z4, ideal_from_members(z4, [0, 2])) == (1, (2,))
    count, seed = min_generators(bb, ideal_from_members(bb, [0, 1]))
    assert count == 1 and seed == (1,)


def test_min_generators_matches_brute_force(catalog_semirings):
    """For every proper ideal of the catalog and of every labeled order-3
    semiring, the count is the least seed size whose element-wise
    fixpoint is the ideal, and the witness is the first such seed in
    ``combinations`` order."""
    for s in [*catalog_semirings, *enumerate_semirings(3)]:
        for a in _proper_ideal_masks(s):
            expected = next(
                (k, seed)
                for k in range(s.n + 1)
                for seed in combinations(range(s.n), k)
                if reference_generated(s, sum(1 << g for g in seed)) == a
            )
            assert min_generators(s, a) == expected, (s.id, a)
