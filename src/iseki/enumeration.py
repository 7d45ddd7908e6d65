"""Exhaustive enumeration of small commutative semirings.

Candidates are built from the free upper-triangle entries of commutative
tables (the additive identity row and the absorbing multiplication row
are forced), pruned by associativity and the existence of a
multiplicative identity, and finally paired under the distributivity
filter.  Canonical forms for the up-to-isomorphism stream are the
lexicographically least (add, mul) flat table pair over all element
permutations fixing 0.
"""

from itertools import permutations, product

from . import _kernels
from .errors import SizeLimitExceeded
from .semiring import FiniteSemiring

ENUMERATION_CAP = 4


def _free_cells(n):
    return [(i, j) for i in range(1, n) for j in range(i, n)]


def _commutative_tables(n, row0):
    """All commutative tables with the given forced row/column 0."""
    cells = _free_cells(n)
    for values in product(range(n), repeat=len(cells)):
        t = [list(row0)] + [[row0[i]] + [0] * (n - 1) for i in range(1, n)]
        for (i, j), v in zip(cells, values):
            t[i][j] = v
            t[j][i] = v
        yield tuple(map(tuple, t))


def _mul_identity(t):
    identity = tuple(range(len(t)))
    for e, row in enumerate(t):
        if row == identity:
            return e
    return None


def _permuted_pair(add, mul, perm):
    n = len(add)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    pa = tuple(inv[add[perm[i]][perm[j]]] for i in range(n) for j in range(n))
    pm = tuple(inv[mul[perm[i]][perm[j]]] for i in range(n) for j in range(n))
    return pa, pm


def canonical_key(add, mul):
    """Least (add, mul) flat pair over the permutations fixing element 0."""
    n = len(add)
    return min(
        _permuted_pair(add, mul, (0,) + p)
        for p in permutations(range(1, n))
    )


def table_pair_key(add, mul):
    return tuple(v for row in add for v in row), tuple(v for row in mul for v in row)


def enumerate_semirings(n, up_to_iso=False, id_prefix=None):
    """Yield every commutative semiring on {0..n-1} with zero = 0.

    With up_to_iso, exactly the canonical representative of each
    isomorphism class is yielded.  Deterministic order: lexicographic in
    the free addition-table entries, then the free multiplication-table
    entries.
    """
    if n < 1:
        raise SizeLimitExceeded("element count must be at least 1")
    if n > ENUMERATION_CAP:
        raise SizeLimitExceeded(
            f"enumeration capped at n <= {ENUMERATION_CAP} (asked for {n})"
        )
    prefix = id_prefix if id_prefix is not None else f"enum{n}"
    identity_row = tuple(range(n))
    zero_row = (0,) * n

    add_tables = [
        t for t in _commutative_tables(n, identity_row)
        if _kernels.table_associative(t)
    ]
    mul_tables = []
    for t in _commutative_tables(n, zero_row):
        e = _mul_identity(t)
        if e is not None and _kernels.table_associative(t):
            mul_tables.append((t, e))

    count = 0
    for add in add_tables:
        for mul, one in mul_tables:
            if not _kernels.distributes(add, mul):
                continue
            if up_to_iso and table_pair_key(add, mul) != canonical_key(add, mul):
                continue
            yield FiniteSemiring(
                id=f"{prefix}-{count}", n=n, add=add, mul=mul, one=one
            )
            count += 1


def isomorphism_orbit_size(s):
    """Number of distinct labeled table pairs isomorphic to ``s`` (0 fixed)."""
    keys = {
        _permuted_pair(s.add, s.mul, (0,) + p)
        for p in permutations(range(1, s.n))
    }
    return len(keys)
