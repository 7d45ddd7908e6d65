"""Ideals of a finite semiring: generation, the ideal algebra, classification.

An ideal is a subset containing 0 that is closed under addition and under
multiplication by arbitrary elements.  Every subset, an ideal included,
is an int bitmask (element i = bit i); ``mask_members`` lists its
elements.  Proper means "not the whole semiring"; sums and products can
overflow to the improper whole semiring, whose mask is ``s.full_mask``.

``ideal_algebra(s)`` is the one implementation of principal ideals and
of ideal sum, product and radical: a cached table of masks per semiring.
The intersection of two ideals is the AND of their masks.  ``_close`` is
the one way to build the ideal generated by a set of elements;
``ideal_from_members`` is the range-checked entry point for element
lists from outside.

``classify`` is the one place that decides whether an ideal is prime,
maximal, radical and so on; ``prime_ideal_masks``, ``maximal_ideal_masks``
and everything built on them read its verdicts through
``classified_ideals``.  ``radical_via_primes`` is the independent second
route to the radical that the sweep compares against the algebra.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

from . import _kernels
from .errors import ImproperIdeal, RangeError


def ideal_from_members(s, members):
    """The mask of an element list; an element outside 0..n-1 raises
    RangeError."""
    mask = 0
    for m in members:
        if not 0 <= int(m) < s.n:
            raise RangeError(f"element {m} out of range 0..{s.n - 1}")
        mask |= 1 << int(m)
    return mask


@lru_cache(maxsize=None)
def _ideal_masks_all(s):
    """All ideal masks of ``s`` including the improper full mask, ascending."""
    return _kernels.ideal_masks(s.add, s.mul)


@lru_cache(maxsize=None)
def _ideal_mask_set(s):
    return frozenset(_ideal_masks_all(s))


def is_ideal_mask(s, mask):
    """Whether a mask is a (possibly improper) ideal of ``s``."""
    return mask in _ideal_mask_set(s)


def _close(s, seed):
    """Least ideal mask containing ``seed`` (and 0).

    The ideals (the improper one included) are closed under intersection,
    so the least one containing the seed is the AND of all that contain
    it.  Being a subset of each of them, it is also the numerically
    smallest, hence the first match in the ascending list; the full mask
    comes last and always matches.
    """
    return next(m for m in _ideal_masks_all(s) if m & seed == seed)


def mask_members(s, mask):
    """The elements of a subset mask of ``s``, ascending."""
    return [i for i in range(s.n) if (mask >> i) & 1]


class IdealAlgebra:
    """The ideal algebra of one semiring, as masks over its ideal lattice.

    ``masks`` are the ideal masks, ascending, the improper one last.
    ``principals[g]`` is the ideal generated by element g, which is
    Rg = {rg} (see ``_kernels.ideal_masks``);
    ``sums[a][b]`` and ``products[a][b]`` are the sum and the product
    (the ideal generated by the element products) of ideals a and b, and
    ``radicals[a]`` the radical of a (the elements with some positive
    power in a), all keyed by mask.  This is the package's only
    implementation of these operations.  None of it depends on a spectrum
    class, so every class's checks read the one table that
    ``ideal_algebra`` caches.  ``tests/test_ideals.py`` checks every
    field against the element-wise fixpoints of ``iseki.verify``.
    """

    def __init__(self, s):
        self.masks = _ideal_masks_all(s)
        mul = s.mul
        members = {a: mask_members(s, a) for a in self.masks}
        self.principals = tuple(
            reduce(or_, (1 << row[g] for row in mul)) for g in range(s.n)
        )
        self.sums = {
            a: {b: _close(s, a | b) for b in self.masks} for a in self.masks
        }
        self.products = {}
        for a in self.masks:
            row = {}
            for b in self.masks:
                pairs = 0
                for x in members[a]:
                    for y in members[b]:
                        pairs |= 1 << mul[x][y]
                row[b] = _close(s, pairs)
            self.products[a] = row
        self.radicals = {a: _radical_mask(s, a) for a in self.masks}


@lru_cache(maxsize=None)
def ideal_algebra(s):
    """The cached :class:`IdealAlgebra` of ``s``."""
    return IdealAlgebra(s)


@lru_cache(maxsize=None)
def _proper_ideal_masks(s):
    # The full mask is the largest ideal mask, so it comes last.
    return _ideal_masks_all(s)[:-1]


def _radical_mask(s, mask):
    out = 0
    for r in range(s.n):
        x = r
        seen = 0
        while not (seen >> x) & 1:
            seen |= 1 << x
            if (mask >> x) & 1:
                out |= 1 << r
                break
            x = s.mul[x][r]
    return out


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
    lexicographically first witness seed."""
    if a == 1:  # the zero ideal
        return 0, ()
    nonzero = mask_members(s, a & ~1)
    for k in range(1, len(nonzero) + 1):
        for seed in combinations(nonzero, k):
            if _close(s, sum(1 << g for g in seed)) == a:
                return k, seed
    raise AssertionError("an ideal always generates itself")


@dataclass(frozen=True)
class IdealClassification:
    prime: bool
    maximal: bool
    primary: bool
    radical_ideal: bool
    irreducible: bool
    strongly_irreducible: bool
    principal: bool
    min_generators: int
    witnesses: tuple

    def witness_dict(self):
        return dict(self.witnesses)

    def to_json(self):
        def unfreeze(v):
            if isinstance(v, tuple):
                return [unfreeze(x) for x in v]
            return v

        return {
            "prime": self.prime,
            "maximal": self.maximal,
            "primary": self.primary,
            "radical": self.radical_ideal,
            "irreducible": self.irreducible,
            "strongly_irreducible": self.strongly_irreducible,
            "principal": self.principal,
            "min_generators": self.min_generators,
            "witnesses": {k: unfreeze(v) for k, v in self.witnesses},
        }


def classify(s, a):
    """Decide every classification flag for a proper ideal mask by exhaustive
    search.

    Negative flags carry concrete witnesses.  The irreducibility
    quantifiers run over all ideals including the improper whole
    semiring.
    """
    if a == s.full_mask:
        raise ImproperIdeal("classification is defined for proper ideals only")
    witnesses = {}

    def bits(mask):
        return tuple(mask_members(s, mask))

    pw = _is_prime_mask(s, a)
    prime = pw is None
    if not prime:
        witnesses["prime"] = pw

    rad_mask = _radical_mask(s, a)
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

    maximal = True
    for m in _proper_ideal_masks(s):
        if m != a and (m & a) == a:
            maximal = False
            witnesses["maximal"] = bits(m)
            break

    every = _ideal_masks_all(s)
    irreducible = True
    strongly_irreducible = True
    for i, b in enumerate(every):
        if not (irreducible or strongly_irreducible):
            break
        for c in every[i:]:
            inter = b & c
            if strongly_irreducible and (inter & a) == inter:
                if (b & a) != b and (c & a) != c:
                    strongly_irreducible = False
                    witnesses["strongly_irreducible"] = (bits(b), bits(c))
            if irreducible and inter == a:
                if b != a and c != a:
                    irreducible = False
                    witnesses["irreducible"] = (bits(b), bits(c))
            if not (irreducible or strongly_irreducible):
                break

    gen_count, seed = min_generators(s, a)
    witnesses["generators"] = tuple(seed)

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
