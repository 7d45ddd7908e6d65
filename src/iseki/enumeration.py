"""Exhaustive enumeration of small commutative semirings.

One backtracking search builds every table.  It fills the free cells
(i, j), 1 <= i <= j < n, of a commutative table in row-major order and
tries their values in ascending order, so its leaves come out in
lexicographic order of the free cells.  Forced rows are fixed with
their columns before the search: row 0, as 0 is the additive identity
and multiplicatively absorbing, and in a multiplication table the row
of its identity e.  Every law holds on a triple that holds 0, and
associativity and e(b + c) = eb + ec hold through e.  A branch is cut
as soon as another law instance whose cells are all assigned fails:
associativity on both tables, and a(b + c) = ab + ac on the
multiplication table against its addition table (commutativity gives
the right law).

The search runs over addition tables first.  For each addition table
kept, one multiplication search runs per choice of identity e, and
their leaves, each table with the one identity it has, are merged in
lexicographic order.  Up to isomorphism the addition table is fixed
first: it is kept only if it is least over the permutations fixing 0,
which each partial table is checked for as its rows complete, and the
multiplication table is then compared under the addition table's
automorphisms alone (see ``enumerate_semirings``).  One row-wise
comparison, ``_automorphisms``, decides both.
This is the cell-by-cell constraint search of Distler & Kelsey, *The
monoids of orders eight, nine & ten*, and Distler et al., *The
semigroups of order 10* (CP 2012).
"""

from heapq import merge
from itertools import combinations_with_replacement, permutations

from .errors import SizeLimitExceeded
from .semiring import FiniteSemiring

ENUMERATION_CAP = 4


def _free_cells(n, forced):
    """The cells (i, j), i <= j, off the rows in ``forced``, in row-major
    order."""
    free = [x for x in range(n) if x not in forced]
    return [(i, j) for i in free for j in free if i <= j]


def _search(n, forced, cells, admissible):
    """Yield every commutative table on {0..n-1} whose row and column x
    are ``forced[x]`` and whose every partial table passes
    ``admissible``, in lexicographic order of ``cells``, its other cells.

    ``admissible(t, k)`` runs once the first k cells are assigned, from
    k = 0.  Row n of ``t`` and its unassigned cells hold n, so a lookup
    through an unassigned cell reads n.
    """
    t = [[n] * n for _ in range(n + 1)]
    for x, row in forced.items():
        for y, v in enumerate(row):
            t[x][y] = t[y][x] = v

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, t[:n]))
            return
        i, j = cells[k]
        for v in range(n):
            t[i][j] = t[j][i] = v
            if admissible(t, k + 1):
                yield from fill(k + 1)
        t[i][j] = t[j][i] = n

    return fill(0) if admissible(t, 0) else iter(())


def _positions(n, cells):
    """``position[x][y]``, the index of cell (x, y) in ``cells`` either
    way round, or -1 for a forced cell."""
    position = [[-1] * n for _ in range(n)]
    for k, (i, j) in enumerate(cells):
        position[i][j] = position[j][i] = k
    return position


def _triples_by_cell(position, cells):
    """For each k, the triples a <= b <= c (not all equal) of elements
    off the forced rows to check once the first k ``cells`` are
    assigned: at the first k at which (a, b), (b, c) and (a, c) are all
    assigned, and at each later k whose cell holds a, b or c, as every
    other cell that the check reads, (ab, c) for one, does.

    In a commutative table, (ab)c = a(bc) on every ordering of {a, b, c}
    exactly when (ab)c, (bc)a and (ac)b agree.  It holds on a triple
    through a forced row: 0 absorbs (or is the additive identity), and
    a multiplicative identity e gives (eb)c = bc = (bc)e = (ec)b.
    """
    ready = [[] for _ in range(len(cells) + 1)]
    for a, b, c in combinations_with_replacement(range(1, len(position)), 3):
        read = position[a][b], position[b][c], position[a][c]
        if a < c and min(read) >= 0:
            first = max(read) + 1
            ready[first].append((a, b, c))
            for k in range(first, len(cells)):
                if not {a, b, c}.isdisjoint(cells[k]):
                    ready[k + 1].append((a, b, c))
    return ready


def _associative_so_far(t, triples, n):
    """Whether no two assigned values of (ab)c, (bc)a and (ac)b differ,
    on each triple; an unassigned one reads n."""
    for a, b, c in triples:
        x = t[t[a][b]][c]
        y = t[t[b][c]][a]
        z = t[t[a][c]][b]
        # Two of them differ, neither unassigned.
        if x != y != n != x or y != z != n != y or x != z != n != x:
            return False
    return True


def _distributivity_by_cell(add, e, position, size):
    """For each k <= ``size``, the triples (a, b, c), a != e and
    1 <= b <= c, whose multiplication cells ab, ac and a(b + c) are first
    all assigned once the first k free cells are; the cells of rows 0
    and e are assigned at k = 0.  The law holds at a = e, the identity:
    e(b + c) = b + c = eb + ec."""
    n = len(add)
    due = [[] for _ in range(size + 1)]
    for a in range(1, n):
        if a != e:
            at = position[a]
            for b in range(1, n):
                for c in range(b, n):
                    s = add[b][c]
                    due[max(at[b], at[c], at[s]) + 1].append((a, b, c, s))
    return due


def _multiplications(add, automorphisms, e, forced, cells, position, triples):
    """Yield (mul, e) for every multiplication table with identity e
    that distributes over ``add`` and that no relabeling in
    ``automorphisms`` makes smaller, in lexicographic order."""
    n = len(add)
    distributivity = _distributivity_by_cell(add, e, position, len(cells))

    def admissible(t, k):
        for a, b, c, s in distributivity[k]:
            if t[a][s] != add[t[a][b]][t[a][c]]:
                return False
        return _associative_so_far(t, triples[k], n) and (
            k < len(cells) or _automorphisms(t, n - 1, automorphisms) is not None
        )

    for mul in _search(n, forced, cells, admissible):
        yield mul, e


def _relabelings(n):
    """For every permutation perm of {0..n-1} fixing 0: perm, and the
    renaming x -> perm^-1(x), which fixes n."""
    out = []
    for p in permutations(range(1, n)):
        order = (0, *p)
        inv = [0] * n + [n]
        for i, x in enumerate(order):
            inv[x] = i
        out.append((order, inv.__getitem__))
    return out


def _automorphisms(t, rows, relabelings):
    """The relabelings that fix rows 1..``rows`` of the row-list table
    ``t``, or None as soon as one makes them smaller, so that no
    completion of ``t`` is least.  Row 0 is fixed by every relabeling.

    Those rows are assigned; an entry that the relabeled table reads
    through an unassigned cell is n, more than any, so only assigned
    entries decide, and a relabeling whose rows differ first at such an
    entry neither fixes ``t`` nor rejects it.
    """
    fixing = []
    for relabeling in relabelings:
        order, rename = relabeling
        for r in range(1, rows + 1):
            image = list(map(rename, map(t[order[r]].__getitem__, order)))
            if image != t[r]:
                if image < t[r]:
                    return None
                break
        else:
            fixing.append(relabeling)
    return fixing


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
    # 0 absorbs, so only the trivial semiring has identity 0.
    by_identity = []
    for e in range(1, n) or (0,):
        forced = {0: (0,) * n, e: tuple(range(n))}
        cells = _free_cells(n, forced)
        position = _positions(n, cells)
        triples = _triples_by_cell(position, cells)
        by_identity.append((e, forced, cells, position, triples))
    add_forced = {0: tuple(range(n))}
    add_cells = _free_cells(n, add_forced)
    associativity = _triples_by_cell(_positions(n, add_cells), add_cells)
    relabelings = _relabelings(n) if up_to_iso else ()
    # The slots at which a row is complete: the ones to compare.
    rows = {k + 1: i for k, (i, j) in enumerate(add_cells) if j == n - 1}

    def add_admissible(t, k):
        return _associative_so_far(t, associativity[k], n) and (
            k not in rows or _automorphisms(t, rows[k], relabelings) is not None
        )

    count = 0
    for add in _search(n, add_forced, add_cells, add_admissible):
        # Least: the last cell completes the last row, which is compared.
        automorphisms = _automorphisms(list(map(list, add)), n - 1, relabelings)
        # A table has one identity, so merging the searches in
        # lexicographic order of all the free cells yields each once.
        searches = [
            _multiplications(add, automorphisms, *search) for search in by_identity
        ]
        for mul, one in merge(*searches):
            yield FiniteSemiring(
                id=f"enum{n}-{count}", n=n, add=add, mul=mul, one=one
            )
            count += 1
