"""Hot inner loops: axiom scans over Cayley tables and bitset ideal searches.

The public kernels are vectorized numpy.  The scalar loop kernels
(``_LOOP_IMPL``) compute the same outputs, first witnesses included, one
element at a time; the differential tests compare them against numpy.

All tables are ``(n, n)`` int64 arrays; subsets of the element set are
bitmasks in an int64 (element ``i`` is bit ``i``), which is why ``n <= 16``
everywhere in this package.
"""

import numpy as np

AXIOM_NAMES = {
    1: "add-commutative",
    2: "add-identity",
    3: "add-associative",
    4: "mul-commutative",
    5: "mul-identity",
    6: "mul-associative",
    7: "absorption",
    8: "distributive-left",
    9: "distributive-right",
}

# Witness arity per axiom code (how many of (a, b, c) are meaningful).
AXIOM_ARITY = {1: 2, 2: 1, 3: 3, 4: 2, 5: 1, 6: 3, 7: 1, 8: 3, 9: 3}


# ---------------------------------------------------------------------------
# Scalar loop kernels (the reference for the differential tests)
# ---------------------------------------------------------------------------

def _axiom_witness_loops(n, add, mul, one):
    # Axioms are scanned in the fixed order of AXIOM_NAMES; within one
    # axiom the first witness is the lexicographically least tuple.
    for a in range(n):
        for b in range(a + 1, n):
            if add[a, b] != add[b, a]:
                return 1, a, b, -1
    for a in range(n):
        if add[0, a] != a:
            return 2, a, -1, -1
    for a in range(n):
        for b in range(n):
            ab = add[a, b]
            for c in range(n):
                if add[ab, c] != add[a, add[b, c]]:
                    return 3, a, b, c
    for a in range(n):
        for b in range(a + 1, n):
            if mul[a, b] != mul[b, a]:
                return 4, a, b, -1
    for a in range(n):
        if mul[one, a] != a:
            return 5, a, -1, -1
    for a in range(n):
        for b in range(n):
            ab = mul[a, b]
            for c in range(n):
                if mul[ab, c] != mul[a, mul[b, c]]:
                    return 6, a, b, c
    for a in range(n):
        if mul[0, a] != 0 or mul[a, 0] != 0:
            return 7, a, -1, -1
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[a, add[b, c]] != add[mul[a, b], mul[a, c]]:
                    return 8, a, b, c
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[add[a, b], c] != add[mul[a, c], mul[b, c]]:
                    return 9, a, b, c
    return 0, -1, -1, -1


def _table_assoc_loops(n, t):
    for a in range(n):
        for b in range(n):
            ab = t[a, b]
            for c in range(n):
                if t[ab, c] != t[a, t[b, c]]:
                    return False
    return True


def _distributes_loops(n, add, mul):
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[a, add[b, c]] != add[mul[a, b], mul[a, c]]:
                    return False
                if mul[add[a, b], c] != add[mul[a, c], mul[b, c]]:
                    return False
    return True


def _ideal_masks_loops(n, add, mul):
    # Every subset containing 0 and closed under + and outer
    # multiplication, ascending.  The full mask (the improper "ideal")
    # is always last.
    total = 1 << n
    out = np.empty(total // 2 if total > 1 else 1, dtype=np.int64)
    count = 0
    for mask in range(1, total, 2):
        ok = True
        for a in range(n):
            if not (mask >> a) & 1:
                continue
            for b in range(a, n):
                if (mask >> b) & 1 and not (mask >> add[a, b]) & 1:
                    ok = False
                    break
            if not ok:
                break
            for r in range(n):
                if not (mask >> mul[r, a]) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out[count] = mask
            count += 1
    return out[:count]


# ---------------------------------------------------------------------------
# Vectorized numpy kernels (same outputs, including first witnesses)
# ---------------------------------------------------------------------------

def _first_index(bad):
    idx = np.argwhere(bad)
    return None if idx.size == 0 else tuple(int(v) for v in idx[0])


def _axiom_witness_numpy(n, add, mul, one):
    rng = np.arange(n)
    w = _first_index(np.triu(add != add.T, k=1))
    if w:
        return (1, w[0], w[1], -1)
    w = _first_index(add[0] != rng)
    if w:
        return (2, w[0], -1, -1)
    w = _first_index(add[add] != add[:, add])
    if w:
        return (3,) + w
    w = _first_index(np.triu(mul != mul.T, k=1))
    if w:
        return (4, w[0], w[1], -1)
    w = _first_index(mul[one] != rng)
    if w:
        return (5, w[0], -1, -1)
    w = _first_index(mul[mul] != mul[:, mul])
    if w:
        return (6,) + w
    w = _first_index((mul[0] != 0) | (mul[:, 0] != 0))
    if w:
        return (7, w[0], -1, -1)
    w = _first_index(mul[:, add] != add[mul[:, :, None], mul[:, None, :]])
    if w:
        return (8,) + w
    w = _first_index(mul[add] != _dist_right_rhs(add, mul))
    if w:
        return (9,) + w
    return (0, -1, -1, -1)


def _dist_right_rhs(add, mul):
    # rhs[a, b, c] = add[mul[a, c], mul[b, c]]
    return add[mul[:, None, :], mul[None, :, :]]


def _table_assoc_numpy(n, t):
    return bool(np.array_equal(t[t], t[:, t]))


def _distributes_numpy(n, add, mul):
    left = np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]])
    right = np.array_equal(mul[add], _dist_right_rhs(add, mul))
    return bool(left and right)


def _ideal_masks_numpy(n, add, mul):
    total = 1 << n
    masks = np.arange(total, dtype=np.int64)
    member = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    ok = member[:, 0].copy()
    for a in range(n):
        for b in range(a, n):
            ok &= ~(member[:, a] & member[:, b] & ~member[:, add[a, b]])
    for r in range(n):
        for a in range(n):
            ok &= ~(member[:, a] & ~member[:, mul[r, a]])
    return masks[ok]


# Both implementations by kernel name, for the differential tests.
_LOOP_IMPL = {
    "axiom_witness": _axiom_witness_loops,
    "table_associative": _table_assoc_loops,
    "distributes": _distributes_loops,
    "ideal_masks": _ideal_masks_loops,
}

_NUMPY_IMPL = {
    "axiom_witness": _axiom_witness_numpy,
    "table_associative": _table_assoc_numpy,
    "distributes": _distributes_numpy,
    "ideal_masks": _ideal_masks_numpy,
}


# ---------------------------------------------------------------------------
# Public kernels
# ---------------------------------------------------------------------------

def axiom_witness(add, mul, one):
    """First failing semiring axiom for the table pair, or code 0.

    Returns ``(code, a, b, c)`` with unused witness slots set to -1; see
    AXIOM_NAMES / AXIOM_ARITY for decoding.
    """
    code, a, b, c = _axiom_witness_numpy(add.shape[0], add, mul, one)
    return int(code), int(a), int(b), int(c)


def table_associative(table):
    return _table_assoc_numpy(table.shape[0], table)


def distributes(add, mul):
    return _distributes_numpy(add.shape[0], add, mul)


def ideal_masks(add, mul):
    """Masks of all +/outer-closed subsets containing 0, ascending."""
    return _ideal_masks_numpy(add.shape[0], add, mul)

