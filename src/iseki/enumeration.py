"""Exhaustive enumeration of small commutative semirings.

One backtracking search builds every table.  It fills the free cells
(i, j), 1 <= i <= j < n, of a commutative table in row-major order and
tries their values in ascending order, so its leaves come out in
lexicographic order of the free cells.  Row and column 0 are forced: 0
is the additive identity and multiplicatively absorbing, so every law
holds on a triple that contains 0.  A branch is cut as soon as a law
whose cells are all assigned fails: associativity on both tables, and
a(b + c) = ab + ac on the multiplication table against its addition
table (commutativity gives the right law).

The search runs over addition tables first, then over the
multiplication tables of each addition table kept, keeping those with a
multiplicative identity.  Up to isomorphism the addition table is fixed
first: it is kept only if its flat table is least over the permutations
fixing 0, and the multiplication table is then compared under the
addition table's automorphisms alone (see ``enumerate_semirings``).
This is the cell-by-cell constraint search of Distler & Kelsey, *The
monoids of orders eight, nine & ten*, and Distler et al., *The
semigroups of order 10* (CP 2012).
"""

from itertools import combinations_with_replacement, permutations

from .errors import SizeLimitExceeded
from .semiring import FiniteSemiring

ENUMERATION_CAP = 4


def _free_cells(n):
    return [(i, j) for i in range(1, n) for j in range(i, n)]


def _search(n, row0, admissible):
    """Yield every commutative table on {0..n-1} whose row and column 0
    are ``row0`` and whose every partial table passes ``admissible``.

    ``admissible(t, k)`` runs once the k-th free cell is assigned.  Row
    and column n of ``t`` and its unassigned cells hold n, so a lookup
    through an unassigned cell reads n.
    """
    cells = _free_cells(n)
    t = [list(row0) + [n]]
    t += [[row0[i]] + [n] * n for i in range(1, n)]
    t.append([n] * (n + 1))

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row[:n]) for row in t[:n])
            return
        i, j = cells[k]
        for v in range(n):
            t[i][j] = t[j][i] = v
            if admissible(t, k):
                yield from fill(k + 1)
        t[i][j] = t[j][i] = n

    return fill(0)


def _triples_by_cell(n):
    """For each free cell k, the triples a <= b <= c of non-zero elements
    (not all equal) whose cells (a, b), (b, c), (a, c) are assigned once
    cell k is.

    In a commutative table, (ab)c = a(bc) on every ordering of {a, b, c}
    exactly when (ab)c, (bc)a and (ac)b agree.
    """
    position = {cell: k for k, cell in enumerate(_free_cells(n))}
    ready = [[] for _ in position]
    for a, b, c in combinations_with_replacement(range(1, n), 3):
        if a < c:
            last = max(position[a, b], position[b, c], position[a, c])
            for k in range(last, len(ready)):
                ready[k].append((a, b, c))
    return ready


def _associative_so_far(t, triples, n):
    # {.., n} has more than two members when two assigned values differ.
    for a, b, c in triples:
        if len({t[t[a][b]][c], t[t[b][c]][a], t[t[a][c]][b], n}) > 2:
            return False
    return True


def _distributivity_by_cell(add):
    """For each free cell k, the triples (a, b, c), 1 <= b <= c, whose
    multiplication cells ab, ac and a(b + c) are first all assigned at
    cell k."""
    n = len(add)
    position = {cell: k for k, cell in enumerate(_free_cells(n))}
    due = [[] for _ in position]
    for a in range(1, n):
        for b, c in combinations_with_replacement(range(1, n), 2):
            cells = [(a, b), (a, c), (a, add[b][c])]
            last = max(position.get(tuple(sorted(cell)), -1) for cell in cells)
            due[last].append((a, b, c, add[b][c]))
    return due


def _mul_identity(t):
    identity = tuple(range(len(t)))
    for e, row in enumerate(t):
        if row == identity:
            return e
    return None


def _relabelings(n):
    """(perm, inverse) for every permutation of {0..n-1} fixing 0."""
    out = []
    for p in permutations(range(1, n)):
        perm = (0,) + p
        inv = [0] * n
        for i, x in enumerate(perm):
            inv[x] = i
        out.append((perm, inv))
    return out


def _permuted(t, relabeling):
    """Flat table of ``t`` with every element x renamed perm^-1(x)."""
    perm, inv = relabeling
    return tuple(inv[t[i][j]] for i in perm for j in perm)


def _flat(t):
    return tuple(v for row in t for v in row)


def enumerate_semirings(n, up_to_iso=False):
    """Yield every commutative semiring on {0..n-1} with zero = 0.

    Deterministic order: lexicographic in the free addition-table
    entries, then the free multiplication-table entries.  With
    up_to_iso, exactly one representative of each isomorphism class is
    yielded: the pair whose flat (add, mul) tables are least over the
    permutations fixing 0.  A pair is that least one exactly when its
    addition table is least over the permutations and its
    multiplication table is least over the addition table's
    automorphisms, since a permutation either makes the addition table
    larger or fixes it.
    """
    if n < 1:
        raise SizeLimitExceeded("element count must be at least 1")
    if n > ENUMERATION_CAP:
        raise SizeLimitExceeded(
            f"enumeration capped at n <= {ENUMERATION_CAP} (asked for {n})"
        )
    associativity = _triples_by_cell(n)
    relabelings = _relabelings(n) if up_to_iso else ()

    def add_admissible(t, k):
        return _associative_so_far(t, associativity[k], n)

    count = 0
    for add in _search(n, tuple(range(n)), add_admissible):
        flat_add = _flat(add)
        if any(_permuted(add, r) < flat_add for r in relabelings):
            continue
        automorphisms = [r for r in relabelings if _permuted(add, r) == flat_add]
        distributivity = _distributivity_by_cell(add)

        def mul_admissible(t, k):
            for a, b, c, s in distributivity[k]:
                if t[a][s] != add[t[a][b]][t[a][c]]:
                    return False
            return _associative_so_far(t, associativity[k], n)

        for mul in _search(n, (0,) * n, mul_admissible):
            one = _mul_identity(mul)
            if one is None:
                continue
            flat_mul = _flat(mul)
            if any(_permuted(mul, r) < flat_mul for r in automorphisms):
                continue
            yield FiniteSemiring(
                id=f"enum{n}-{count}", n=n, add=add, mul=mul, one=one
            )
            count += 1
