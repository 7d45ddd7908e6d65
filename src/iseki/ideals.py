"""Ideals of a finite semiring: generation, the ideal algebra, classification.

An ideal is a subset containing 0 that is closed under addition and under
multiplication by arbitrary elements.  Every subset, an ideal included,
is an int bitmask (element i = bit i); ``mask_members`` lists its
elements.  Proper means "not the whole semiring"; sums and products can
overflow to the improper whole semiring, whose mask is ``s.full_mask``.

``ideal_algebra(s)`` is the one implementation of principal ideals and
of ideal sum, product, radical and generation: cached tables of masks
per semiring, its one table of sums the ideal search's a + Rg, which
generation, and so sums and products, fold.  The intersection of two
ideals is the AND of their masks.
``IdealAlgebra.generated`` is the one way to build the ideal generated
by a set of elements; ``ideal_from_members`` is the range-checked entry
point for element lists from outside.

``classify`` is the one place that decides whether an ideal is prime,
maximal, radical and so on; ``prime_ideal_masks``, ``maximal_ideal_masks``
and everything built on them read its verdicts through
``classified_ideals``.  ``radical_via_primes`` is the independent second
route to the radical that the sweep compares against the algebra.
"""

from collections import namedtuple
from functools import lru_cache, reduce
from operator import and_

from . import _kernels
from .errors import ImproperIdeal, RangeError, as_int


def ideal_from_members(s, members):
    """The mask of an element list; an element that is not an integer
    (``errors.as_int``) or lies outside 0..n-1 raises RangeError."""
    mask = 0
    for m in members:
        m = as_int(m, "element")
        if not 0 <= m < s.n:
            raise RangeError(f"element {m} out of range 0..{s.n - 1}")
        mask |= 1 << m
    return mask


@lru_cache(maxsize=None)
def _ideal_masks_all(s):
    """All ideal masks of ``s`` including the improper full mask, ascending."""
    return ideal_algebra(s).masks


def is_ideal_mask(s, mask):
    """Whether a mask is a (possibly improper) ideal of ``s``."""
    return mask in ideal_algebra(s).joins


def mask_members(s, mask):
    """The elements of a subset mask of ``s``, ascending."""
    return [i for i in range(s.n) if (mask >> i) & 1]


class IdealAlgebra:
    """The ideal algebra of one semiring, as masks over its ideal lattice.

    ``joins[a][g]`` is a + Rg, the sum of the ideal a and the principal
    ideal Rg = {rg} of element g, as the ideal search found it (see
    ``_kernels.ideal_masks``); it is the package's one table of ideal
    sums.  ``masks`` are its keys, the ideal masks, ascending, the
    improper one last, and ``principals[g]`` is Rg, the row of the zero
    ideal.  ``generated(seed)`` folds the joins over the seed's elements,
    so the sum of ideals a and b is ``generated(a | b)``, and
    ``product(a, b)`` is ``generated`` of the element products.
    ``radicals[a]`` is the radical of a (the elements with some positive
    power in a), keyed by mask, and ``seeds[a]`` the lexicographically
    first least seed that generates a (see ``min_generators``).  No table
    is indexed by pairs of ideals: the laws over such pairs read the joins
    or the principals.  This is the package's only implementation of these
    operations.  None of it depends on a spectrum class, so every class's
    checks read the one table that ``ideal_algebra`` caches.
    ``tests/test_ideals.py`` checks every field against the element-wise
    fixpoints of ``iseki.verify``.
    """

    def __init__(self, s):
        self.semiring = s
        self.joins = _kernels.ideal_masks(s.add, s.mul)
        self.masks = tuple(self.joins)
        self.principals = self.joins[1]
        # powers[r] is the mask of r, r^2, r^3, ...; r lies in the radical
        # of a exactly when that mask meets a.
        powers = []
        for r in range(s.n):
            mask, x = 0, r
            while not (mask >> x) & 1:
                mask |= 1 << x
                x = s.mul[x][r]
            powers.append(mask)
        self.radicals = {
            a: sum(1 << r for r, power in enumerate(powers) if power & a)
            for a in self.masks
        }
        # Breadth first from the zero ideal over the joins: each ideal
        # found gets its parent's seed plus the element g it joined.
        self.seeds = {1: ()}
        order = [1]
        for a in order:
            for g, b in enumerate(self.joins[a]):
                if b not in self.seeds:
                    self.seeds[b] = self.seeds[a] + (g,)
                    order.append(b)

    def generated(self, seed):
        """The least ideal mask holding the elements of the mask ``seed``:
        the sum of their principal ideals, added one at a time."""
        total = 1
        while seed:
            low = seed & -seed
            total = self.joins[total][low.bit_length() - 1]
            seed ^= low
        return total

    def product(self, a, b):
        """The ideal generated by the products xy, x in a, y in b: the sum
        of the principal ideals R(xy), since Rx * Ry = R(xy)."""
        s = self.semiring
        right = mask_members(s, b)
        pairs = {s.mul[x][y] for x in mask_members(s, a) for y in right}
        return self.generated(sum(1 << xy for xy in pairs))


@lru_cache(maxsize=None)
def ideal_algebra(s):
    """The cached :class:`IdealAlgebra` of ``s``."""
    return IdealAlgebra(s)


@lru_cache(maxsize=None)
def _proper_ideal_masks(s):
    # The full mask is the largest ideal mask, so it comes last.
    return _ideal_masks_all(s)[:-1]


def _is_prime_mask(s, mask):
    for x in range(s.n):
        if (mask >> x) & 1:
            continue
        for y in range(x, s.n):
            if (mask >> y) & 1:
                continue
            if (mask >> s.mul[x][y]) & 1:
                return (x, y)
    return None


@lru_cache(maxsize=None)
def prime_ideal_masks(s):
    return tuple(m for m, c in classified_ideals(s) if c.prime)


def radical_via_primes(s, a):
    """Mask of the intersection of all prime ideals containing ``a``.

    Independent of ``IdealAlgebra.radicals``, which are built from
    element powers: the primes come from the ``_is_prime_mask`` test in
    ``classify``.  The two must agree on every finite semiring, which
    the sweep asserts.  If no prime contains ``a`` (only
    possible when ``a`` is improper or the semiring is trivial) the
    improper whole semiring is returned.
    """
    mask = s.full_mask
    for p in prime_ideal_masks(s):
        if (p & a) == a:
            mask &= p
    return mask


@lru_cache(maxsize=None)
def maximal_ideal_masks(s):
    return tuple(m for m, c in classified_ideals(s) if c.maximal)


def jacobson_radical(s):
    """Mask of the intersection of all maximal ideals; improper for the
    trivial semiring."""
    mask = s.full_mask
    for m in maximal_ideal_masks(s):
        mask &= m
    return mask


def min_generators(s, a):
    """Smallest generating-set size of the ideal mask ``a`` and the
    lexicographically first witness seed, among seeds of that size; a
    mask that is not an ideal raises RangeError.

    The seed is ``IdealAlgebra.seeds[a]``, found breadth first from the
    zero ideal: the ideals a + Rg of one ideal a are found in ascending
    g, and the ideals of one level in the order their parents were
    found.  A level is a least seed size, since an ideal generated by k
    elements is k joins from the zero ideal.  Within each level, the
    order found is the order of the seeds, and each seed is the first
    least seed, by induction on the level.  Let (c1, ..., ck) be the
    first least seed of b.  Its prefix is the first least seed of the
    ideal p it generates: a smaller seed of p, with ck merged in, would
    be a smaller seed of b.  For the same reason, every pair (a, g)
    found before (p, ck) with a + Rg = b would give, sorted, a seed of b
    smaller than (c1, ..., ck).  So b is first found from p and ck, and
    its seed is the prefix plus ck.
    """
    seed = ideal_algebra(s).seeds.get(a)
    if seed is None:
        raise RangeError(f"mask {a} is not an ideal")
    return len(seed), seed


class IdealClassification(namedtuple("IdealClassification", "prime maximal primary "
        "radical_ideal irreducible strongly_irreducible principal min_generators witnesses")):
    """The verdicts of :func:`classify` on one proper ideal.  A named
    tuple, so it compares and hashes by its fields, and every field is
    read-only: ``classified_ideals`` shares one cached value."""

    __slots__ = ()

    def witness_dict(self):
        return dict(self.witnesses)

    def to_json(self):
        return {
            "prime": self.prime,
            "maximal": self.maximal,
            "primary": self.primary,
            "radical": self.radical_ideal,
            "irreducible": self.irreducible,
            "strongly_irreducible": self.strongly_irreducible,
            "principal": self.principal,
            "min_generators": self.min_generators,
            "witnesses": self.witness_dict(),
        }


def classify(s, a):
    """Decide every classification flag for a proper ideal mask.

    Negative flags carry concrete witnesses, each the first in mask
    order.  Maximality and irreducibility range over all ideals, the
    improper one included, and read the lattice.  The least ideal above
    a is an upper cover of a, and a is maximal when it is the whole
    semiring.  a is the meet of two ideals above it exactly when it has
    two upper covers, which then meet in a (with one cover u, every ideal
    above a holds u), so exactly when its least cover meets an ideal
    above a in a.  The ideals not inside a are closed under meets exactly
    when their whole meet is not inside a: that is strong irreducibility.

    Each scan reads a's join row or the principal ideals, and finds what
    a scan of every ideal would.  An ideal b above a holds some g not in
    a, so a < a + Rg <= b (as masks too): the least cover, and the least
    c above a with c & cover = a, are entries of the row.  An ideal b not
    inside a holds some g not in a, so Rg <= b lies outside a too: the
    meet of the ideals outside a is the meet of those Rg, and the first
    pair b, c outside a with b & c inside a (by mask, b first) is a pair
    of them, since shrinking b or c to such an Rg keeps the pair.  The
    radical is the algebra's.
    """
    if a == s.full_mask:
        raise ImproperIdeal("classification is defined for proper ideals only")
    algebra = ideal_algebra(s)
    witnesses = {}

    def bits(mask):
        return tuple(mask_members(s, mask))

    pw = _is_prime_mask(s, a)
    prime = pw is None
    if not prime:
        witnesses["prime"] = pw

    rad_mask = algebra.radicals[a]
    radical_ideal = rad_mask == a
    if not radical_ideal:
        extra = rad_mask & ~a
        witnesses["radical"] = ((extra & -extra).bit_length() - 1,)

    primary = True
    for x in range(s.n):
        if primary and not (a >> x) & 1:
            for y in range(s.n):
                if (a >> s.mul[x][y]) & 1 and not (rad_mask >> y) & 1:
                    primary = False
                    witnesses["primary"] = (x, y)
                    break

    above = sorted(set(algebra.joins[a]) - {a})
    cover = above[0]
    maximal = cover == s.full_mask
    if not maximal:
        witnesses["maximal"] = bits(cover)
    partner = next((c for c in above if (c & cover) == a), None)
    irreducible = partner is None
    if not irreducible:
        witnesses["irreducible"] = (bits(cover), bits(partner))

    outside = sorted({algebra.principals[g] for g in range(s.n) if not (a >> g) & 1})
    strongly_irreducible = (reduce(and_, outside) & ~a) != 0
    if not strongly_irreducible:
        witnesses["strongly_irreducible"] = next(
            (bits(b), bits(c)) for b in outside for c in outside if (b & c & ~a) == 0
        )

    gen_count, witnesses["generators"] = min_generators(s, a)

    return IdealClassification(
        prime=prime,
        maximal=maximal,
        primary=primary,
        radical_ideal=radical_ideal,
        irreducible=irreducible,
        strongly_irreducible=strongly_irreducible,
        principal=gen_count <= 1,
        min_generators=gen_count,
        witnesses=tuple(sorted(witnesses.items())),
    )


@lru_cache(maxsize=None)
def classified_ideals(s):
    """(mask, IdealClassification) for every proper ideal, ascending."""
    return tuple((m, classify(s, m)) for m in _proper_ideal_masks(s))
