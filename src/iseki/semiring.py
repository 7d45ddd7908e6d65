"""Finite commutative semirings on {0..n-1} and maps between them.

A semiring here is a pair of n x n Cayley tables (addition and
multiplication) with a commutative additive monoid whose identity is the
element 0, a commutative multiplicative monoid with designated identity
``one``, 0 absorbing, and multiplication distributing over addition.
Element 0 is the additive identity by storage convention; ``one`` may
equal 0 only in the one-element (trivial) semiring.

A homomorphism s -> t is its image tuple: ``m[a]`` is the image of
element a.  It preserves +, *, 0 and 1; preserving 0 is imposed on top
of the usual multiplicative-identity requirement so that kernels are
always defined.
"""

from collections.abc import Iterable
from itertools import repeat

from . import _kernels
from .errors import (
    AxiomViolation,
    InvalidHomomorphism,
    RangeError,
    SizeLimitExceeded,
    as_int,
)
from .ideals import is_ideal_mask, mask_members

MAX_ELEMENTS = 16


class FiniteSemiring:
    """A validated finite commutative semiring.

    Construct through :func:`validate_semiring`, which scans the axioms,
    or through one of the two constructions that prove them:
    :func:`bourne_quotient` (a homomorphic image of a semiring) and
    ``enumeration.enumerate_semirings`` (a search that checks every law
    on every triple).  The constructor itself does not re-check the
    axioms or copy the tables.  ``add`` and ``mul``
    are tuples of n int tuples, read as ``add[a][b]``.
    ``structure`` is ``(n, one, add, mul)``: everything but the id.
    Equality and the hash are those of ``structure``, because the ideals,
    spectra and homomorphisms of a semiring depend on its tables alone;
    so every per-semiring ``lru_cache`` holds one entry per table pair,
    shared by every id that names it.  The id is a label that reports
    stamp on their instances: nothing cached may read it.  Every field
    is read-only, because every cache keys on the value, whose hash is
    computed once.
    """

    __slots__ = ("id", "n", "add", "mul", "one", "structure", "_hash")

    def __init__(self, id, n, add, mul, one):
        key = (n, one, add, mul)
        for name, value in zip(self.__slots__, (id, n, add, mul, one, key, hash(key))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"FiniteSemiring.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return FiniteSemiring, (self.id, self.n, self.add, self.mul, self.one)

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteSemiring):
            return NotImplemented
        return self.structure == other.structure

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteSemiring(id={self.id!r}, n={self.n})"


def _read_table(table):
    """The table read once, and its shape.  The table comes back as a list
    of its rows, each a tuple unless it is a scalar (a str counts as one);
    the shape is (), (rows,) or (rows, columns), or None when the rows
    differ in length or mix sequences with scalars.  An empty sequence is
    the 0 x 0 table; a table that is not iterable has shape ()."""
    if not isinstance(table, Iterable):
        return table, ()
    rows = [
        tuple(row) if isinstance(row, Iterable) and not isinstance(row, str) else row
        for row in table
    ]
    if not rows:
        return rows, (0, 0)
    nested = [type(row) is tuple for row in rows]
    if not any(nested):
        return rows, (len(rows),)
    if not all(nested):
        return rows, None
    widths = {len(row) for row in rows}
    return rows, (len(rows), widths.pop()) if len(widths) == 1 else None


def _int_table(name, table, n):
    """The table as a tuple of int tuples; non-integer entries (bool and
    float included, by ``errors.as_int``) and entries outside 0..n-1
    raise RangeError."""
    try:
        out = tuple(tuple(map(as_int, row, repeat(name))) for row in table)
    except RangeError:
        raise RangeError(f"{name} table has non-integer entries") from None
    for i, row in enumerate(out):
        for j, v in enumerate(row):
            if not 0 <= v < n:
                raise RangeError(f"{name}[{i},{j}] = {v} out of range 0..{n - 1}")
    return out


def _check_tables_shape(add, mul, one):
    add, shape = _read_table(add)
    if shape is None:
        raise RangeError("addition table has rows of different lengths")
    if len(shape) != 2 or shape[0] != shape[1]:
        raise RangeError(f"addition table is not square: shape {shape}")
    mul, mul_shape = _read_table(mul)
    if mul_shape is None:
        raise RangeError("multiplication table has rows of different lengths")
    if mul_shape != shape:
        raise RangeError(f"table shapes differ: add {shape} vs mul {mul_shape}")
    n = shape[0]
    if n < 1:
        raise RangeError("element count must be at least 1")
    if n > MAX_ELEMENTS:
        raise SizeLimitExceeded(f"n={n} exceeds the {MAX_ELEMENTS}-element cap")
    add = _int_table("add", add, n)
    mul = _int_table("mul", mul, n)
    one = as_int(one, "one")
    if not 0 <= one < n:
        raise RangeError(f"one={one} out of range 0..{n - 1}")
    return n, add, mul, one


def validate_semiring(add, mul, one, id="anonymous"):
    """Check every semiring axiom and return the validated value.

    Raises RangeError for malformed tables or a ``one`` that is not an
    integer in range, and AxiomViolation (with the first failing axiom
    and a concrete witness) otherwise.  Every call sanitises its tables;
    the axiom scan runs once per distinct ``(add, mul, one)``, which
    ``_kernels.axiom_witness`` caches, as a corpus of documents or the
    builtin catalog repeats tables under other ids.
    """
    n, add, mul, one = _check_tables_shape(add, mul, one)
    violation = _kernels.axiom_witness(add, mul, one)
    if violation is not None:
        raise AxiomViolation(*violation)
    return FiniteSemiring(id=id, n=n, add=add, mul=mul, one=one)


def _homomorphism_violation(source, target, m):
    """The first law that the int sequence ``m`` breaks as a map from
    ``source`` to ``target``, as ``(law, witness)``; None when ``m`` is a
    homomorphism."""
    if len(m) != source.n or any(not 0 <= v < target.n for v in m):
        return "total-map", (len(m),)
    if m[0] != 0:
        return "preserves-zero", (0,)
    if m[source.one] != target.one:
        return "preserves-one", (source.one,)
    for a in range(source.n):
        for b in range(a, source.n):
            if m[source.add[a][b]] != target.add[m[a]][m[b]]:
                return "preserves-add", (a, b)
            if m[source.mul[a][b]] != target.mul[m[a]][m[b]]:
                return "preserves-mul", (a, b)
    return None


def validate_homomorphism(source, target, mapping):
    """Validate that ``mapping`` preserves +, *, 0 and 1.

    Returns the map as its image tuple, or raises InvalidHomomorphism
    with the first broken law and its witness; an image that is not an
    integer (``errors.as_int``) raises RangeError.
    """
    m = tuple(as_int(v, "image") for v in mapping)
    violation = _homomorphism_violation(source, target, m)
    if violation is not None:
        raise InvalidHomomorphism(*violation)
    return m


def direct_product(s, t):
    """Componentwise product semiring; element (i, j) becomes i*|t| + j."""
    n = s.n * t.n
    if n > MAX_ELEMENTS:
        raise SizeLimitExceeded(
            f"product size {s.n}*{t.n}={n} exceeds {MAX_ELEMENTS}"
        )
    pairs = [(i, j) for i in range(s.n) for j in range(t.n)]
    add = [
        [s.add[i][k] * t.n + t.add[j][l] for k, l in pairs] for i, j in pairs
    ]
    mul = [
        [s.mul[i][k] * t.n + t.mul[j][l] for k, l in pairs] for i, j in pairs
    ]
    one = s.one * t.n + t.one
    return validate_semiring(add, mul, one, id=f"{s.id}x{t.id}")


def quotient_id(semiring_id, members):
    """The id of the quotient of a semiring by an ideal, e.g.
    ``C3/{0,1}``."""
    return f"{semiring_id}/{{{','.join(str(m) for m in sorted(members))}}}"


def bourne_quotient(s, ideal):
    """Quotient of ``s`` by the Bourne congruence of an ideal mask I:
    a ~ b iff a + i = b + j for some i, j in I.

    Returns (quotient semiring, surjective quotient map as its image
    tuple).  The relation is reflexive (0 is in I), symmetric, and
    transitive because I is closed under +: a + i = b + j and
    b + k = c + l give a + (i + k) = c + (j + l).  So the least b <= a
    with b ~ a is the least element of a's class; these, ascending,
    represent the classes, the class of 0 first.  The kernel is the class
    of 0: it contains I and may exceed it, and when it is everything the
    quotient is trivial.  A mask that is not an ideal of ``s`` raises
    RangeError.

    The quotient's tables are proved, not scanned for the axioms.  The
    map m sends a to the index of its least related element, so m is
    onto, and the tables, read at the representatives, are symmetric as
    those of ``s`` are.  ``validate_homomorphism`` checks that m
    preserves +, *, 0 and 1 (on a <= b; symmetry gives the rest).  So
    every axiom carries over from ``s`` to its image: for instance
    (m(a) + m(b)) + m(c) = m((a + b) + c) = m(a + (b + c)) =
    m(a) + (m(b) + m(c)) and m(1)m(a) = m(a), and the other axioms
    follow the same way (Golan, *Semirings and their Applications*,
    1999).  The check also proves that reps[i] lies in class i, as
    m(a) = m(a + 0) = m(reps[m(a)] + reps[0]).  It fails, raising
    InvalidHomomorphism, only when the ideal search accepted a mask
    that is not an ideal.
    """
    if not is_ideal_mask(s, ideal):
        raise RangeError(f"mask {ideal} is not an ideal of {s.id}")
    members = mask_members(s, ideal)
    reach = [{s.add[a][i] for i in members} for a in range(s.n)]
    least = [
        next(b for b in range(a + 1) if not reach[a].isdisjoint(reach[b]))
        for a in range(s.n)
    ]
    reps = sorted(set(least))
    index_of = [reps.index(b) for b in least]
    add = tuple(tuple(index_of[s.add[a][b]] for b in reps) for a in reps)
    mul = tuple(tuple(index_of[s.mul[a][b]] for b in reps) for a in reps)
    quotient = FiniteSemiring(
        quotient_id(s.id, members), len(reps), add, mul, index_of[s.one]
    )
    return quotient, validate_homomorphism(s, quotient, index_of)
