"""Hot inner loops: axiom scans over Cayley tables and the ideal search.

Tables are tuples of n int tuples, read as ``t[a][b]``; subsets of the
element set are bitmasks in an int (element ``i`` is bit ``i``), and
``n <= 16`` everywhere in this package.  Every kernel is a plain Python
loop.  A scan over triples (a, b, c) compares whole rows over c at once
and looks for the first differing c only when two rows differ, so every
witness is still the lexicographically least failing tuple.
``tests/test_kernels.py`` holds an independent vectorized reference and
compares every kernel against it, first witnesses included.
"""

from functools import lru_cache


def _first_difference(left, right):
    return next(c for c, (x, y) in enumerate(zip(left, right)) if x != y)


def _commutativity_witness(t):
    for a, row in enumerate(t):
        for b in range(a + 1, len(t)):
            if row[b] != t[b][a]:
                return a, b
    return None


def _identity_witness(row):
    for a, v in enumerate(row):
        if v != a:
            return a
    return None


def _associativity_witness(t):
    # Row c of (ab)c is t[ab]; row c of a(bc) is t[a] composed with t[b].
    for a, ta in enumerate(t):
        for b, tb in enumerate(t):
            left = t[ta[b]]
            right = tuple(map(ta.__getitem__, tb))
            if left != right:
                return a, b, _first_difference(left, right)
    return None


def _left_distributivity_witness(add, mul):
    # a(b + c) = ab + ac, as rows over c.
    for a, ma in enumerate(mul):
        for b, sb in enumerate(add):
            left = tuple(map(ma.__getitem__, sb))
            right = tuple(map(add[ma[b]].__getitem__, ma))
            if left != right:
                return a, b, _first_difference(left, right)
    return None


@lru_cache(maxsize=None)
def axiom_witness(add, mul, one):
    """The first failing semiring axiom of the table pair, as ``(axiom
    name, witness tuple)``, or None.

    Axioms are scanned in the order below; within one axiom the witness
    is the lexicographically least failing tuple.  Cached, as the
    verdict depends on the tables alone and a corpus repeats tables
    under other ids.  The catalog holds each base's quotient by {0},
    which is the base, and quotients equal to smaller bases: ingesting
    its 30 documents gives 21 hits as recorded, 15 with their labels
    shuffled.  Building it validates B and C3 again for each product
    they enter: 4 hits in 13 calls.
    """
    w = _commutativity_witness(add)
    if w:
        return "add-commutative", w
    w = _identity_witness(add[0])
    if w is not None:
        return "add-identity", (w,)
    w = _associativity_witness(add)
    if w:
        return "add-associative", w
    w = _commutativity_witness(mul)
    if w:
        return "mul-commutative", w
    w = _identity_witness(mul[one])
    if w is not None:
        return "mul-identity", (w,)
    w = _associativity_witness(mul)
    if w:
        return "mul-associative", w
    # Multiplication commutes from here on, so a0 = 0a, and the left law
    # gives the right one: (a + b)c = c(a + b) = ca + cb = ac + bc.
    for a, row in enumerate(mul):
        if row[0] != 0:
            return "absorption", (a,)
    w = _left_distributivity_witness(add, mul)
    if w:
        return "distributive-left", w
    return None


def ideal_masks(add, mul):
    """``{a: (a + R0, ..., a + R(n-1))}`` over all ideal masks, ascending.

    Exact on semirings.  The principal ideal of g is Rg = {rg}: it holds
    0 = 0g and g = 1g, and rg + sg = (r + s)g and s(rg) = (sr)g keep it
    closed.  The sum of two ideals is {i + j}, and every ideal is the sum
    of the principal ideals of its members, so closing the zero ideal
    under "add one principal ideal" reaches every ideal (the improper one
    too) and nothing else, through the joins a + Rg (a when g is in a).
    """
    elements = range(len(add))
    principal = [{row[g] for row in mul} for g in elements]
    # shifted[g][x] is the mask of x + Rg.
    shifted = [[sum({1 << add[x][p] for p in rg}) for x in elements] for rg in principal]
    joins = {}
    todo = {1}
    while todo:
        ideal = todo.pop()
        members = [x for x in elements if (ideal >> x) & 1]
        row = []
        for g, shift in enumerate(shifted):
            bigger = ideal
            if not (ideal >> g) & 1:
                for x in members:
                    bigger |= shift[x]
                if bigger not in joins:
                    todo.add(bigger)
            row.append(bigger)
        joins[ideal] = tuple(row)
    return dict(sorted(joins.items()))
