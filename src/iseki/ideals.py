"""Ideals of a finite semiring: generation, lattice operations, classification.

An ideal is a subset containing 0 that is closed under addition and under
multiplication by arbitrary elements.  Proper means "not the whole
semiring"; sums and products can overflow to the improper whole semiring,
which is represented like any other ideal but flagged by ``is_proper``.
Subsets are bitmasks (element i = bit i).
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

from . import _kernels
from .errors import EmptyFamily, ImproperIdeal, NoMaximalIdeal, RangeError


@dataclass(frozen=True)
class Ideal:
    semiring: str
    n: int
    mask: int

    @property
    def members(self):
        return tuple(i for i in range(self.n) if (self.mask >> i) & 1)

    def member_set(self):
        return set(self.members)

    @property
    def is_proper(self):
        return self.mask != (1 << self.n) - 1

    def issubset(self, other):
        return (self.mask & other.mask) == self.mask

    def to_json(self):
        return {"semiring": self.semiring, "members": list(self.members)}

    def __repr__(self):
        return f"Ideal({self.semiring}, {{{','.join(map(str, self.members))}}})"


def ideal_from_mask(s, mask):
    return Ideal(semiring=s.id, n=s.n, mask=int(mask))


def ideal_from_members(s, members):
    mask = 0
    for m in members:
        if not 0 <= int(m) < s.n:
            raise RangeError(f"element {m} out of range 0..{s.n - 1}")
        mask |= 1 << int(m)
    return ideal_from_mask(s, mask)


@lru_cache(maxsize=None)
def _ideal_masks_all(s):
    """All ideal masks of ``s`` including the improper full mask, ascending."""
    return tuple(int(m) for m in _kernels.ideal_masks(s.add, s.mul))


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
    ``principals[g]`` is the ideal generated by element g;
    ``sums[a][b]`` and ``products[a][b]`` are the sum and the (generated)
    product of ideals a and b, and ``radicals[a]`` the radical of a, all
    keyed by mask.  None of it depends on a spectrum class, so every
    class's checks read the one table that ``ideal_algebra`` caches.
    """

    def __init__(self, s):
        self._semiring = s
        self.masks = _ideal_masks_all(s)
        mul = s.mul.tolist()
        members = {a: mask_members(s, a) for a in self.masks}
        self.principals = tuple(_close(s, 1 << g) for g in range(s.n))
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
        self._family_sums = {}

    def family_sums(self, size):
        """Sum mask of every family of ``size`` ideals, in the order that
        ``combinations(self.masks, size)`` gives the families."""
        if size not in self._family_sums:
            self._family_sums[size] = tuple(
                _close(self._semiring, reduce(or_, family))
                for family in combinations(self.masks, size)
            )
        return self._family_sums[size]


@lru_cache(maxsize=None)
def ideal_algebra(s):
    """The cached :class:`IdealAlgebra` of ``s``."""
    return IdealAlgebra(s)


@lru_cache(maxsize=None)
def _proper_ideal_masks(s):
    full = s.full_mask
    return tuple(m for m in _ideal_masks_all(s) if m != full)


def all_ideals(s, proper_only=True):
    """Every ideal of ``s`` in ascending bitset order.

    With proper_only=False the improper whole semiring is included as the
    final entry (it always satisfies the closure conditions).
    """
    masks = _proper_ideal_masks(s) if proper_only else _ideal_masks_all(s)
    return [ideal_from_mask(s, m) for m in masks]


def generated_ideal(s, seed):
    """Least ideal containing the seed elements (and 0)."""
    mask = 0
    for e in seed:
        if not 0 <= int(e) < s.n:
            raise RangeError(f"element {e} out of range 0..{s.n - 1}")
        mask |= 1 << int(e)
    return ideal_from_mask(s, _close(s, mask))


def _require_same_semiring(s, ideals):
    for a in ideals:
        if a.semiring != s.id or a.n != s.n:
            raise RangeError(
                f"ideal of {a.semiring!r} used with semiring {s.id!r}"
            )


def sum_ideals(s, ideals):
    """Ideal of all finite sums over a nonempty family of ideals."""
    ideals = list(ideals)
    if not ideals:
        raise EmptyFamily("sum of an empty family of ideals")
    _require_same_semiring(s, ideals)
    union = 0
    for a in ideals:
        union |= a.mask
    return ideal_from_mask(s, _close(s, union))


def addition_closure(s, mask):
    """Closure of a subset (plus 0) under addition only.

    For sets that are already outer-multiplication stable, this equals the
    generated ideal; exposed separately for differential testing.
    """
    mask = int(mask) | 1
    changed = True
    while changed:
        changed = False
        members = mask_members(s, mask)
        for a in members:
            for b in members:
                c = int(s.add[a, b])
                if not (mask >> c) & 1:
                    mask |= 1 << c
                    changed = True
    return mask


def product_ideals(s, a, b, variant="generated"):
    """Ideal product: the ideal generated by pairwise element products.

    variant="sums" instead closes the product set under addition only
    (the finite-sums definition).  The two agree on genuine ideals, which
    the test suite checks.
    """
    _require_same_semiring(s, [a, b])
    products = 0
    for x in a.members:
        for y in b.members:
            products |= 1 << int(s.mul[x, y])
    if variant == "generated":
        return ideal_from_mask(s, _close(s, products))
    if variant == "sums":
        return ideal_from_mask(s, addition_closure(s, products))
    raise ValueError(f"unknown product variant {variant!r}")


def intersect_ideals(s, ideals):
    ideals = list(ideals)
    if not ideals:
        raise EmptyFamily("intersection of an empty family of ideals")
    _require_same_semiring(s, ideals)
    mask = s.full_mask
    for a in ideals:
        mask &= a.mask
    return ideal_from_mask(s, mask)


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
            x = int(s.mul[x, r])
    return out


def radical(s, a):
    """Elements with some positive power inside ``a``."""
    return ideal_from_mask(s, _radical_mask(s, a.mask))


def _is_prime_mask(s, mask):
    for x in range(s.n):
        if (mask >> x) & 1:
            continue
        for y in range(x, s.n):
            if (mask >> y) & 1:
                continue
            if (mask >> int(s.mul[x, y])) & 1:
                return (x, y)
    return None


@lru_cache(maxsize=None)
def prime_ideal_masks(s):
    return tuple(
        m for m in _proper_ideal_masks(s) if _is_prime_mask(s, m) is None
    )


def radical_via_primes(s, a):
    """Intersection of all prime ideals containing ``a``.

    Independent of :func:`radical`; the two must agree on every finite
    semiring, which the sweep asserts.  If no prime contains ``a`` (only
    possible when ``a`` is improper or the semiring is trivial) the
    improper whole semiring is returned.
    """
    mask = s.full_mask
    found = False
    for p in prime_ideal_masks(s):
        if (p & a.mask) == a.mask:
            mask &= p
            found = True
    if not found:
        return ideal_from_mask(s, s.full_mask)
    return ideal_from_mask(s, mask)


@lru_cache(maxsize=None)
def maximal_ideal_masks(s):
    proper = _proper_ideal_masks(s)
    out = []
    for m in proper:
        if not any(b != m and (b & m) == m for b in proper):
            out.append(m)
    return tuple(out)


def jacobson_radical(s):
    """Intersection of all maximal ideals; improper for the trivial semiring."""
    maxima = maximal_ideal_masks(s)
    if not maxima:
        return ideal_from_mask(s, s.full_mask)
    mask = s.full_mask
    for m in maxima:
        mask &= m
    return ideal_from_mask(s, mask)


def maximal_cover(s, a):
    """Lowest-bitset maximal ideal containing ``a``."""
    if not a.is_proper:
        raise ImproperIdeal("improper ideals have no maximal cover")
    for m in maximal_ideal_masks(s):
        if (m & a.mask) == a.mask:
            return ideal_from_mask(s, m)
    raise NoMaximalIdeal(f"{s.id} has no maximal ideal (trivial semiring)")


def min_generators(s, a):
    """Smallest generating-set size and the lexicographically first witness seed."""
    zero = generated_ideal(s, [])
    if a.mask == zero.mask:
        return 0, ()
    nonzero = [m for m in a.members if m != 0]
    for k in range(1, len(nonzero) + 1):
        for seed in combinations(nonzero, k):
            if generated_ideal(s, seed).mask == a.mask:
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
    """Decide every classification flag for a proper ideal by exhaustive search.

    Negative flags carry concrete witnesses.  The irreducibility
    quantifiers run over all ideals including the improper whole
    semiring.
    """
    if not a.is_proper:
        raise ImproperIdeal("classification is defined for proper ideals only")
    witnesses = {}

    def bits(mask):
        return tuple(x for x in range(s.n) if (mask >> x) & 1)

    pw = _is_prime_mask(s, a.mask)
    prime = pw is None
    if not prime:
        witnesses["prime"] = pw

    rad_mask = _radical_mask(s, a.mask)
    radical_ideal = rad_mask == a.mask
    if not radical_ideal:
        extra = rad_mask & ~a.mask
        witnesses["radical"] = ((extra & -extra).bit_length() - 1,)

    primary = True
    for x in range(s.n):
        if primary and not (a.mask >> x) & 1:
            for y in range(s.n):
                if (a.mask >> int(s.mul[x, y])) & 1 and not (rad_mask >> y) & 1:
                    primary = False
                    witnesses["primary"] = (x, y)
                    break

    maximal = True
    for m in _proper_ideal_masks(s):
        if m != a.mask and (m & a.mask) == a.mask:
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
            if strongly_irreducible and (inter & a.mask) == inter:
                if (b & a.mask) != b and (c & a.mask) != c:
                    strongly_irreducible = False
                    witnesses["strongly_irreducible"] = (bits(b), bits(c))
            if irreducible and inter == a.mask:
                if b != a.mask and c != a.mask:
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
    """(Ideal, IdealClassification) for every proper ideal, ascending."""
    return tuple(
        (ideal_from_mask(s, m), classify(s, ideal_from_mask(s, m)))
        for m in _proper_ideal_masks(s)
    )
