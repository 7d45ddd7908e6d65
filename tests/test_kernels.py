"""Differential tests: the pure-Python kernels against an independent
vectorized numpy reference, first-witness tuples included.  numpy is a
test-only dependency; the package itself never imports it."""

import numpy as np
from conftest import atoms, naive_ideal_sets
from hypothesis import given, settings
from hypothesis import strategies as st

from iseki import _kernels
from iseki.semiring import validate_semiring
from iseki.verify import _generated_set

# ---------------------------------------------------------------------------
# numpy reference kernels on (n, n) int64 arrays
# ---------------------------------------------------------------------------


def _first_index(bad):
    idx = np.argwhere(bad)
    return None if idx.size == 0 else tuple(int(v) for v in idx[0])


def _dist_right_rhs(add, mul):
    # rhs[a, b, c] = add[mul[a, c], mul[b, c]]
    return add[mul[:, None, :], mul[None, :, :]]


def reference_axiom_witness(add, mul, one):
    n = add.shape[0]
    rng = np.arange(n)
    scans = [
        ("add-commutative", np.triu(add != add.T, k=1)),
        ("add-identity", add[0] != rng),
        ("add-associative", add[add] != add[:, add]),
        ("mul-commutative", np.triu(mul != mul.T, k=1)),
        ("mul-identity", mul[one] != rng),
        ("mul-associative", mul[mul] != mul[:, mul]),
        ("absorption", (mul[0] != 0) | (mul[:, 0] != 0)),
        ("distributive-left", mul[:, add] != add[mul[:, :, None], mul[:, None, :]]),
        ("distributive-right", mul[add] != _dist_right_rhs(add, mul)),
    ]
    for axiom, bad in scans:
        w = _first_index(bad)
        if w:
            return axiom, w
    return None


def reference_ideal_masks(add, mul):
    """Scan of all 2^n masks: those containing 0, closed under + and
    under multiplication by any element."""
    n = add.shape[0]
    masks = np.arange(1 << n, dtype=np.int64)
    member = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    ok = member[:, 0].copy()
    for a in range(n):
        for b in range(a, n):
            ok &= ~(member[:, a] & member[:, b] & ~member[:, add[a, b]])
    for r in range(n):
        for a in range(n):
            ok &= ~(member[:, a] & ~member[:, mul[r, a]])
    return tuple(int(m) for m in masks[ok])


def assert_joins_exact(s, joins):
    """Every entry ``joins[a][g]`` of the ideal search is a + Rg, the
    ideal generated by the members of a and g, as the element-wise
    fixpoint of ``iseki.verify`` computes it."""
    for a, row in joins.items():
        members = [e for e in range(s.n) if (a >> e) & 1]
        assert len(row) == s.n, (s.id, a)
        for g, total in enumerate(row):
            expected = sum(1 << e for e in _generated_set(s, [*members, g]))
            assert total == expected, (s.id, a, g)


# ---------------------------------------------------------------------------


def as_tuples(table):
    return tuple(tuple(int(v) for v in row) for row in table)


def tables(n, seed, shaped):
    """Random table pair as numpy arrays.  ``shaped`` forces the
    commutativity, identity and absorption axioms (with one = 1) so
    witnesses come from the associativity and distributivity scans."""
    rng = np.random.default_rng(seed)
    add = rng.integers(0, n, (n, n)).astype(np.int64)
    mul = rng.integers(0, n, (n, n)).astype(np.int64)
    if shaped:
        rows = np.arange(n)
        add = np.triu(add) + np.triu(add, k=1).T
        mul = np.triu(mul) + np.triu(mul, k=1).T
        add[0, :] = add[:, 0] = rows
        mul[1, :] = mul[:, 1] = rows
        mul[0, :] = mul[:, 0] = 0
    return add, mul


def assert_tables_agree(add, mul, one):
    """Every table kernel on tuples equals its reference on arrays."""
    tadd, tmul = as_tuples(add), as_tuples(mul)
    witness = _kernels.axiom_witness(tadd, tmul, one)
    assert witness == reference_axiom_witness(add, mul, one)
    return witness


@given(st.integers(2, 5), st.integers(0, 10_000), st.booleans())
@settings(max_examples=150, deadline=None)
def test_axiom_witness_backends_agree(n, seed, shaped):
    add, mul = tables(n, seed, shaped)
    witness = _kernels.axiom_witness(as_tuples(add), as_tuples(mul), 1)
    assert witness == reference_axiom_witness(add, mul, 1)


def test_backends_agree_on_small_semirings(small_semirings):
    for s in small_semirings:
        add, mul = np.array(s.add), np.array(s.mul)
        assert assert_tables_agree(add, mul, s.one) is None, s.id
        joins = _kernels.ideal_masks(s.add, s.mul)
        masks = tuple(joins)
        assert masks == reference_ideal_masks(add, mul), s.id
        assert masks[-1] == s.full_mask
        assert_joins_exact(s, joins)


def test_ideal_masks_match_naive_scan(small_semirings):
    """The principal-ideal search is exact on semirings: it finds the same
    ideals as an independent frozenset scan over every subset, and its
    joins are the generated ideals."""
    for s in small_semirings:
        expected = sorted(sum(1 << e for e in ideal) for ideal in naive_ideal_sets(s))
        joins = _kernels.ideal_masks(s.add, s.mul)
        assert list(joins) == expected, s.id
        assert_joins_exact(s, joins)


def test_ideal_masks_match_reference_scan_up_to_sixteen():
    """Against the 2^n scan on semirings with many elements or many
    ideals: B^4, the 16-chain, Z16 and the 38-ideal ``atoms5``; the joins
    against the element-wise fixpoint."""
    n = 16
    corpus = [
        atoms(5),
        validate_semiring(
            [[a | b for b in range(n)] for a in range(n)],
            [[a & b for b in range(n)] for a in range(n)],
            n - 1,
            id="B^4",
        ),
        validate_semiring(
            [[max(a, b) for b in range(n)] for a in range(n)],
            [[min(a, b) for b in range(n)] for a in range(n)],
            n - 1,
            id="C16",
        ),
        validate_semiring(
            [[(a + b) % n for b in range(n)] for a in range(n)],
            [[(a * b) % n for b in range(n)] for a in range(n)],
            1,
            id="Z16",
        ),
    ]
    for s in corpus:
        expected = reference_ideal_masks(np.array(s.add), np.array(s.mul))
        joins = _kernels.ideal_masks(s.add, s.mul)
        assert tuple(joins) == expected, s.id
        assert_joins_exact(s, joins)


def test_valid_tables_scan_clean(catalog_semirings):
    for s in catalog_semirings:
        assert _kernels.axiom_witness(s.add, s.mul, s.one) is None


def test_witness_order_is_lexicographic():
    # add[1][2] != add[2][1] and nothing earlier breaks: first witness (1, 2).
    add = np.array([[0, 1, 2], [1, 0, 0], [2, 1, 0]], dtype=np.int64)
    mul = np.zeros((3, 3), dtype=np.int64)
    expected = ("add-commutative", (1, 2))
    assert _kernels.axiom_witness(as_tuples(add), as_tuples(mul), 1) == expected
    assert reference_axiom_witness(add, mul, 1) == expected
