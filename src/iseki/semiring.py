"""Finite commutative semirings on {0..n-1} and maps between them.

A semiring here is a pair of n x n Cayley tables (addition and
multiplication) with a commutative additive monoid whose identity is the
element 0, a commutative multiplicative monoid with designated identity
``one``, 0 absorbing, and multiplication distributing over addition.
Element 0 is the additive identity by storage convention; ``one`` may
equal 0 only in the one-element (trivial) semiring.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    AxiomViolation,
    InvalidHomomorphism,
    RangeError,
    SizeLimitExceeded,
)

MAX_ELEMENTS = 16


def _freeze(table):
    arr = np.ascontiguousarray(np.asarray(table, dtype=np.int64))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FiniteSemiring:
    """A validated finite commutative semiring.

    Instances are immutable.  Construct through :func:`validate_semiring`;
    the constructor itself does not re-check the axioms.
    """

    id: str
    n: int
    add: np.ndarray
    mul: np.ndarray
    one: int
    zero: int = 0

    def __post_init__(self):
        object.__setattr__(self, "add", _freeze(self.add))
        object.__setattr__(self, "mul", _freeze(self.mul))
        # Every lru_cache lookup hashes the semiring, so the structural
        # key and the hash are computed once here.
        key = (self.n, self.one, self.add.tobytes(), self.mul.tobytes())
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash((self.id,) + key))

    def __reduce__(self):
        # bytes hashes are salted per process: rebuild the cached hash on
        # unpickling instead of carrying the sender's.
        return (
            type(self),
            (self.id, self.n, self.add, self.mul, self.one, self.zero),
        )

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def same_structure(self, other):
        return self._key == other._key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteSemiring):
            return NotImplemented
        return self.id == other.id and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteSemiring(id={self.id!r}, n={self.n})"


@dataclass(frozen=True)
class Homomorphism:
    """A structure-preserving total map between two finite semirings.

    Preserves +, *, 0 and 1.  (Preserving 0 is imposed on top of the
    usual multiplicative-identity requirement so that kernels are always
    defined.)
    """

    source: str
    target: str
    map: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(int(v) for v in self.map))

    def is_surjective_onto(self, target_n):
        return len(set(self.map)) == target_n


def _check_tables_shape(add, mul, one):
    add = np.asarray(add)
    mul = np.asarray(mul)
    if add.ndim != 2 or add.shape[0] != add.shape[1]:
        raise RangeError(f"addition table is not square: shape {add.shape}")
    if mul.shape != add.shape:
        raise RangeError(
            f"table shapes differ: add {add.shape} vs mul {mul.shape}"
        )
    n = int(add.shape[0])
    if n < 1:
        raise RangeError("element count must be at least 1")
    if n > MAX_ELEMENTS:
        raise SizeLimitExceeded(f"n={n} exceeds the {MAX_ELEMENTS}-element cap")
    for name, t in (("add", add), ("mul", mul)):
        if not np.issubdtype(t.dtype, np.integer):
            raise RangeError(f"{name} table has non-integer entries")
        if t.min() < 0 or t.max() >= n:
            bad = np.argwhere((t < 0) | (t >= n))[0]
            raise RangeError(
                f"{name}[{bad[0]},{bad[1]}] = {t[bad[0], bad[1]]} out of range 0..{n - 1}"
            )
    if not 0 <= int(one) < n:
        raise RangeError(f"one={one} out of range 0..{n - 1}")
    return n, add.astype(np.int64), mul.astype(np.int64)


def validate_semiring(add, mul, one, id="anonymous"):
    """Check every semiring axiom and return the validated value.

    Raises RangeError for malformed tables and AxiomViolation (with the
    first failing axiom and a concrete witness) otherwise.
    """
    n, add, mul = _check_tables_shape(add, mul, one)
    code, a, b, c = _kernels.axiom_witness(add, mul, int(one))
    if code != 0:
        arity = _kernels.AXIOM_ARITY[code]
        raise AxiomViolation(_kernels.AXIOM_NAMES[code], (a, b, c)[:arity])
    return FiniteSemiring(id=id, n=n, add=add, mul=mul, one=int(one))


def semiring_axiom_report(add, mul, one):
    """Like validate_semiring but returns (ok, axiom, witness) without raising."""
    try:
        n, add, mul = _check_tables_shape(add, mul, one)
    except (RangeError, SizeLimitExceeded) as exc:
        return False, "table-format", str(exc)
    code, a, b, c = _kernels.axiom_witness(add, mul, int(one))
    if code == 0:
        return True, None, None
    arity = _kernels.AXIOM_ARITY[code]
    return False, _kernels.AXIOM_NAMES[code], (a, b, c)[:arity]


def validate_homomorphism(source, target, mapping, check_only=False):
    """Validate that ``mapping`` preserves +, *, 0 and 1.

    Returns a Homomorphism, or raises InvalidHomomorphism with the law
    name and witness.  With check_only, returns True/False instead.
    """
    m = tuple(int(v) for v in mapping)
    if len(m) != source.n or any(not 0 <= v < target.n for v in m):
        if check_only:
            return False
        raise InvalidHomomorphism("total-map", (len(m),))
    if m[0] != 0:
        if check_only:
            return False
        raise InvalidHomomorphism("preserves-zero", (0,))
    if m[source.one] != target.one:
        if check_only:
            return False
        raise InvalidHomomorphism("preserves-one", (source.one,))
    for a in range(source.n):
        for b in range(a, source.n):
            if m[source.add[a, b]] != target.add[m[a], m[b]]:
                if check_only:
                    return False
                raise InvalidHomomorphism("preserves-add", (a, b))
            if m[source.mul[a, b]] != target.mul[m[a], m[b]]:
                if check_only:
                    return False
                raise InvalidHomomorphism("preserves-mul", (a, b))
    if check_only:
        return True
    return Homomorphism(source=source.id, target=target.id, map=m)


def direct_product(s, t, id=None):
    """Componentwise product semiring; element (i, j) becomes i*|t| + j."""
    n = s.n * t.n
    if n > MAX_ELEMENTS:
        raise SizeLimitExceeded(
            f"product size {s.n}*{t.n}={n} exceeds {MAX_ELEMENTS}"
        )
    add = np.empty((n, n), dtype=np.int64)
    mul = np.empty((n, n), dtype=np.int64)
    for i in range(s.n):
        for j in range(t.n):
            x = i * t.n + j
            for k in range(s.n):
                for l in range(t.n):
                    y = k * t.n + l
                    add[x, y] = s.add[i, k] * t.n + t.add[j, l]
                    mul[x, y] = s.mul[i, k] * t.n + t.mul[j, l]
    one = s.one * t.n + t.one
    return validate_semiring(add, mul, one, id=id or f"{s.id}x{t.id}")


def nontrivial_idempotents(s):
    """Elements x with x*x = x other than 0 and 1, ascending."""
    return [
        x
        for x in range(s.n)
        if s.mul[x, x] == x and x != 0 and x != s.one
    ]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def bourne_congruence_classes(s, members):
    """Partition of the elements under a ~ b iff a+i = b+j for i, j in the ideal.

    The relation is symmetric and reflexive by construction; transitivity
    is forced by a union-find pass.  Returns classes sorted by least
    element (so the class of 0 comes first).
    """
    member_list = sorted(members)
    uf = _UnionFind(s.n)
    for a in range(s.n):
        reach_a = {int(s.add[a, i]) for i in member_list}
        for b in range(a + 1, s.n):
            if any(int(s.add[b, j]) in reach_a for j in member_list):
                uf.union(a, b)
    roots = {}
    for x in range(s.n):
        roots.setdefault(uf.find(x), []).append(x)
    return sorted(roots.values(), key=lambda cls: cls[0])


def bourne_quotient(s, ideal, id=None):
    """Quotient by the additive congruence generated by an ideal.

    Returns (quotient semiring, surjective quotient homomorphism).  The
    kernel of the map is the congruence class of 0, which contains the
    ideal and may exceed it; when the class of 0 is everything the
    quotient is the trivial semiring.
    """
    members = ideal.member_set()
    classes = bourne_congruence_classes(s, members)
    index_of = {}
    for ci, cls in enumerate(classes):
        for x in cls:
            index_of[x] = ci
    q = len(classes)
    reps = [cls[0] for cls in classes]
    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            add[i, j] = index_of[int(s.add[a, b])]
            mul[i, j] = index_of[int(s.mul[a, b])]
    # Well-definedness of the tables on classes; the congruence property
    # guarantees it, so a failure here is an internal bug.
    for a in range(s.n):
        for b in range(s.n):
            if add[index_of[a], index_of[b]] != index_of[int(s.add[a, b])]:
                raise AssertionError("congruence not compatible with +")
            if mul[index_of[a], index_of[b]] != index_of[int(s.mul[a, b])]:
                raise AssertionError("congruence not compatible with *")
    if any(index_of[x] != 0 for x in members):
        raise AssertionError("ideal escaped the zero class")
    member_str = ",".join(str(m) for m in sorted(members))
    quotient = validate_semiring(
        add, mul, index_of[s.one], id=id or f"{s.id}/{{{member_str}}}"
    )
    hom = validate_homomorphism(
        s, quotient, [index_of[x] for x in range(s.n)]
    )
    return quotient, hom
