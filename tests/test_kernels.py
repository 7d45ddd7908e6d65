"""Differential tests: the scalar loop kernels, run as pure Python, and
the numpy kernels must be indistinguishable, including first-witness
tuples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from iseki import _kernels

IMPLS = {"loops": _kernels._LOOP_IMPL, "numpy": _kernels._NUMPY_IMPL}


def tables(n, seed, shaped):
    """Random table pair.  ``shaped`` forces the commutativity, identity
    and absorption axioms (with one = 1) so witnesses come from the
    associativity and distributivity scans."""
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


def assert_agree(kernel, *args):
    """Run one kernel on every implementation; return the common output."""
    results = {name: impl[kernel](*args) for name, impl in IMPLS.items()}
    if kernel in ("axiom_witness", "ideal_masks"):
        results = {name: tuple(int(v) for v in out) for name, out in results.items()}
    else:
        results = {name: bool(out) for name, out in results.items()}
    assert len(set(results.values())) == 1, (kernel, results)
    return results["numpy"]


@given(st.integers(2, 5), st.integers(0, 10_000), st.booleans())
@settings(max_examples=150, deadline=None)
def test_axiom_witness_backends_agree(n, seed, shaped):
    add, mul = tables(n, seed, shaped)
    assert_agree("axiom_witness", n, add, mul, 1)


@given(st.integers(2, 5), st.integers(0, 10_000), st.booleans())
@settings(max_examples=100, deadline=None)
def test_table_checks_backends_agree(n, seed, shaped):
    add, mul = tables(n, seed, shaped)
    assert_agree("table_associative", n, add)
    assert_agree("table_associative", n, mul)
    assert_agree("distributes", n, add, mul)


@given(st.integers(2, 6), st.integers(0, 10_000), st.booleans())
@settings(max_examples=100, deadline=None)
def test_ideal_masks_backends_agree(n, seed, shaped):
    add, mul = tables(n, seed, shaped)
    assert_agree("ideal_masks", n, add, mul)


def test_backends_agree_on_small_semirings(small_semirings):
    for s in small_semirings:
        assert assert_agree("axiom_witness", s.n, s.add, s.mul, s.one)[0] == 0
        assert assert_agree("table_associative", s.n, s.add)
        assert assert_agree("table_associative", s.n, s.mul)
        assert assert_agree("distributes", s.n, s.add, s.mul)
        assert assert_agree("ideal_masks", s.n, s.add, s.mul)[-1] == s.full_mask


def test_valid_tables_scan_clean(catalog_semirings):
    for s in catalog_semirings:
        assert _kernels.axiom_witness(s.add, s.mul, s.one)[0] == 0


def test_witness_order_is_lexicographic():
    # add[1, 2] != add[2, 1] and nothing earlier breaks: first witness (1, 2).
    add = np.array([[0, 1, 2], [1, 0, 0], [2, 1, 0]], dtype=np.int64)
    mul = np.zeros((3, 3), dtype=np.int64)
    for name, impl in IMPLS.items():
        code, a, b, _ = impl["axiom_witness"](3, add, mul, 1)
        assert (code, a, b) == (1, 1, 2), name
