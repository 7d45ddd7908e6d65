from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from operator import and_

import pytest

from iseki.catalog import builtin_catalog, named
from iseki.enumeration import enumerate_semirings
from iseki.ideals import _ideal_masks_all, classified_ideals, maximal_ideal_masks
from iseki.semiring import direct_product, validate_homomorphism, validate_semiring
from iseki.serialize import canonical_json, semiring_to_json
from iseki.sweep import (
    IDEAL_LATTICE,
    INSTANCE_KEY,
    MORPHISM,
    QUOTIENT,
    TOPOLOGY,
    WITNESS_CAP,
    verdicts,
)
from iseki.topology import up_set
from iseki.verify import _generated_set, _powers


def _commutative_tables(n, row0):
    """All commutative tables with the given forced row/column 0, in
    lexicographic order of the free upper-triangle entries."""
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    for values in product(range(n), repeat=len(cells)):
        t = [list(row0)] + [[row0[i]] + [0] * (n - 1) for i in range(1, n)]
        for (i, j), v in zip(cells, values):
            t[i][j] = v
            t[j][i] = v
        yield tuple(map(tuple, t))


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


def isomorphism_orbit_size(s):
    """Number of distinct labeled table pairs isomorphic to ``s`` (0 fixed)."""
    return len(
        {_permuted_pair(s.add, s.mul, (0,) + p) for p in permutations(range(1, s.n))}
    )


def compose(s, t, u, first, second):
    """The composite homomorphism s -> u of first: s -> t and second: t -> u."""
    return validate_homomorphism(s, u, tuple(second[first[a]] for a in range(s.n)))


def nontrivial_idempotents(s):
    """Elements x with x*x = x other than 0 and 1, ascending."""
    return [x for x in range(s.n) if s.mul[x][x] == x and x not in (0, s.one)]


def emit(path, s):
    """Write the canonical JSON document for a semiring."""
    text = canonical_json(semiring_to_json(s))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def report_sections(report):
    """Each report kind and the sweep's reports of that kind, in order."""
    return {
        TOPOLOGY: report["topology"],
        IDEAL_LATTICE: report["ideal_checks"],
        MORPHISM: report["morphisms"]["reports"],
        QUOTIENT: report["quotients"]["reports"],
    }


def _record(tally, name, kind, rep, ok, detail):
    """Count one instance of an oracle; keep the first WITNESS_CAP failure
    witnesses, each the instance's ``INSTANCE_KEY`` fields plus the
    oracle's ``detail``."""
    entry = tally.setdefault(
        name, {"instances": 0, "passes": 0, "failures": 0, "witnesses": []}
    )
    entry["instances"] += 1
    if ok:
        entry["passes"] += 1
    else:
        entry["failures"] += 1
        if len(entry["witnesses"]) < WITNESS_CAP:
            witness = {field: rep[field] for field in INSTANCE_KEY[kind]}
            witness.update(detail)
            entry["witnesses"].append(witness)


def reference_tallies(report):
    """``(tallies, observations)`` of a sweep report, replayed instance by
    instance in corpus order with every oracle's verdict decided on the
    instance itself: the reference for the sweep's tally by multiplicity."""
    tallies, observations = {}, {}
    for kind, reports in report_sections(report).items():
        for rep in reports:
            for oracle, ok, detail in verdicts(kind, rep):
                tally = tallies if oracle.universal else observations
                _record(tally, oracle.name, kind, rep, ok, detail)
    return tallies, observations


def table_pair_key(add, mul):
    return tuple(v for row in add for v in row), tuple(v for row in mul for v in row)


def _associative(t):
    n = len(t)
    return all(
        t[t[a][b]][c] == t[a][t[b][c]] for a, b, c in product(range(n), repeat=3)
    )


def _distributive(add, mul):
    # a(b + c) = ab + ac; commutativity of mul gives the right law.
    n = len(add)
    return all(
        mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        for a, b, c in product(range(n), repeat=3)
    )


def reference_semirings(n, up_to_iso=False):
    """Brute-force reference for ``enumerate_semirings``: every pair of
    associative commutative tables built by ``product()``, filtered by a
    multiplicative identity, whole-table distributivity and, up to
    isomorphism, ``canonical_key``.  Yields ``(id, one, add, mul)``."""
    add_tables = [
        t for t in _commutative_tables(n, tuple(range(n))) if _associative(t)
    ]
    identity = tuple(range(n))
    mul_tables = [
        (t, t.index(identity))
        for t in _commutative_tables(n, (0,) * n)
        if identity in t and _associative(t)
    ]
    count = 0
    for add in add_tables:
        for mul, one in mul_tables:
            if not _distributive(add, mul):
                continue
            if up_to_iso and table_pair_key(add, mul) != canonical_key(add, mul):
                continue
            yield f"enum{n}-{count}", one, add, mul
            count += 1


@pytest.fixture(scope="session")
def boolean():
    return named("B")


@pytest.fixture(scope="session")
def z2():
    return named("Z2")


@pytest.fixture(scope="session")
def c3():
    return named("C3")


@pytest.fixture(scope="session")
def c4():
    return named("C4")


@pytest.fixture(scope="session")
def z4():
    return named("Z4")


@pytest.fixture(scope="session")
def trivial():
    return named("trivial")


@pytest.fixture(scope="session")
def bb(boolean):
    # Elements encode pairs (i, j) as 2*i + j: {0}xB = {0,1}, Bx{0} = {0,2}.
    return direct_product(boolean, boolean)


@pytest.fixture(scope="session")
def collapsing3():
    """Three-element semiring whose Bourne quotient by {0, 1} collapses
    everything: 2 + 1 = 1, so 2 ~ 1 ~ 0 and the kernel is improper."""
    return validate_semiring(
        [[0, 1, 2], [1, 1, 1], [2, 1, 1]],
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        2,
        id="collapsing3",
    )


@pytest.fixture(scope="session")
def enum4_10():
    """The order-4 enumerator's ``enum4-10``, the first witness of the
    kernel-up-set gap: 3 * 3 = 0, and its Bourne quotient by {0, 3} is B
    because 1 ~ 2 (1 + 0 = 2 + 3), while the prime ideal {0, 1, 3} omits 2."""
    return validate_semiring(
        [[0, 1, 2, 3], [1, 1, 1, 1], [2, 1, 1, 1], [3, 1, 1, 3]],
        [[0, 0, 0, 0], [0, 1, 1, 3], [0, 1, 2, 3], [0, 3, 3, 0]],
        2,
        id="enum4-10",
    )


@pytest.fixture(scope="session")
def catalog_semirings():
    return builtin_catalog()


@pytest.fixture(scope="session")
def small_semirings(catalog_semirings):
    """The catalog plus every labeled semiring of order <= 4."""
    out = list(catalog_semirings)
    for n in range(1, 5):
        out.extend(enumerate_semirings(n))
    return out


def naive_ideal_sets(s):
    """Independent frozenset-based ideal scan (no bitmasks, no kernels)."""
    elements = list(range(s.n))
    out = []
    for mask in range(1 << s.n):
        subset = frozenset(e for e in elements if (mask >> e) & 1)
        if not subset:
            continue
        closed = all(
            s.add[a][b] in subset for a in subset for b in subset
        ) and all(
            s.mul[r][a] in subset for r in elements for a in subset
        )
        if closed:
            out.append(subset)
    return sorted(out, key=lambda ss: sorted(ss))


@pytest.fixture(scope="session")
def chain6():
    add = [[max(a, b) for b in range(6)] for a in range(6)]
    mul = [[min(a, b) for b in range(6)] for a in range(6)]
    return validate_semiring(add, mul, 5, id="C6")


@lru_cache(maxsize=None)
def atoms(k):
    """``atoms{k}``: k + 3 elements, 0, k atoms 1..k that join pairwise to
    t = k + 1, a top one = k + 2, and a product that is zero except by
    the unit.  Every join-closed subset of {0, atoms, t} that holds 0 is
    an ideal, so there are 2^k + k + 2 ideals, the improper one included."""
    n, t, one = k + 3, k + 1, k + 2

    def join(a, b):
        if a == 0 or b == 0:
            return a + b
        if one in (a, b):
            return one
        return a if a == b else t

    def times(a, b):
        return b if a == one else a if b == one else 0

    rows = range(n)
    return validate_semiring(
        [[join(a, b) for b in rows] for a in rows],
        [[times(a, b) for b in rows] for a in rows],
        one,
        id=f"atoms{k}",
    )


@lru_cache(maxsize=None)
def nullchain(k):
    """``nullchain{k}``: the chain 0 < a1 < ... < ak < 1 as the elements
    0 < 1 < ... < k < one = k + 1, with + as max and every product of
    two non-units 0.  Max keeps every subset of {0, a1, ..., ak} that
    holds 0, and a non-unit times anything is 0, so each is an ideal:
    2^k + 1 ideals with the improper one, on k + 2 elements."""
    n, one = k + 2, k + 1
    rows = range(n)
    return validate_semiring(
        [[max(a, b) for b in rows] for a in rows],
        [[b if a == one else a if b == one else 0 for b in rows] for a in rows],
        one,
        id=f"nullchain{k}",
    )


def closed_set_count(spec):
    """Number of closed sets of a space, counted through
    ``Spectrum.closure``.  The lowest point x of a remaining set R is
    minimal in R (points ascend by ideal mask), so a closed set inside R
    either omits x or holds the closure of x:
    count(R) = count(R - {x}) + count(R - closure({x}))."""
    count = {0: 1}
    stack = [spec.full]
    while stack:
        r = stack[-1]
        if r in count:
            stack.pop()
            continue
        low = r & -r
        rests = (r ^ low, r & ~spec.closure(low))
        todo = [q for q in rests if q not in count]
        if todo:
            stack.extend(todo)
        else:
            count[r] = count[rests[0]] + count[rests[1]]
            stack.pop()
    return count[spec.full]


def reference_irreducibility(s, a):
    """``(irreducible, strongly_irreducible, witnesses)`` of a proper ideal
    mask by the pair search over every ideal, the improper one included:
    a is irreducible unless two ideals other than a meet in a, and
    strongly irreducible unless two ideals not inside a meet inside a.
    Each witness is the first such pair (b, c), b <= c in mask order, as
    member tuples: the reference for ``ideals.classify``."""
    every = _ideal_masks_all(s)
    irreducible = strongly_irreducible = True
    witnesses = {}
    for i, b in enumerate(every):
        for c in every[i:]:
            inter = b & c
            if strongly_irreducible and (inter & a) == inter:
                if (b & a) != b and (c & a) != c:
                    strongly_irreducible = False
                    witnesses["strongly_irreducible"] = (
                        tuple(_members(b)), tuple(_members(c))
                    )
            if irreducible and inter == a and b != a and c != a:
                irreducible = False
                witnesses["irreducible"] = (tuple(_members(b)), tuple(_members(c)))
    return irreducible, strongly_irreducible, witnesses


def _union_closure(seeds):
    family = set(seeds)
    family.add(0)
    frontier = list(family)
    while frontier:
        new = {a | b for a in frontier for b in family} - family
        family |= new
        frontier = list(new)
    return family


def _intersection_closure(family, full):
    family = set(family)
    family.add(full)
    frontier = list(family)
    while frontier:
        new = {a & b for a in frontier for b in family} - family
        family |= new
        frontier = list(new)
    return family


class ReferenceLattice:
    """Fixpoint reference for the topology of a spectrum: the closed sets
    are generated from the up-sets of every ideal by closing under unions
    and intersections, and each property is decided by searching them."""

    def __init__(self, spec):
        ideal_masks = sorted(
            sum(1 << e for e in ideal) for ideal in naive_ideal_sets(spec.semiring)
        )
        self.full = spec.full
        self.subbasis = {
            m: sum(1 << i for i, p in enumerate(spec.points) if (p & m) == m)
            for m in ideal_masks
        }
        closed = _intersection_closure(_union_closure(self.subbasis.values()), self.full)
        self.closed = sorted(closed)
        self.closed_set = frozenset(closed)

    def closure(self, point_set):
        out = self.full
        for k in self.closed:
            if (k & point_set) == point_set:
                out &= k
        return out

    def irreducible_closed_sets(self):
        out = []
        for k in self.closed:
            subs = [c for c in self.closed if c != k and (c & k) == c]
            if k and not any(c1 | c2 == k for c1 in subs for c2 in subs):
                out.append(k)
        return out

    def clopen_witness(self):
        """Lowest closed set other than the empty set and the whole space
        whose complement is closed, or None."""
        for k in self.closed:
            if k not in (0, self.full) and (self.full ^ k) in self.closed_set:
                return k
        return None

    def disconnection_sides(self):
        """Lowest union of subbasic sets whose complement is one too, each
        side given as ideal masks: the lowest ideal per distinct up-set,
        collapsed to one ideal when the side is itself an up-set."""
        lowest = {}
        for m in sorted(self.subbasis):
            lowest.setdefault(self.subbasis[m], m)
        lowest.pop(0, None)
        unions = _union_closure(lowest)
        for alpha in sorted(unions):
            beta = self.full ^ alpha
            if alpha in (0, self.full) or beta not in unions:
                continue

            def side(mask):
                if mask in lowest:
                    return [lowest[mask]]
                return [m for u, m in sorted(lowest.items()) if (u & mask) == u]

            return side(alpha), side(beta)
        return None


def _members(mask):
    return [e for e in range(mask.bit_length()) if (mask >> e) & 1]


def _mask(elements):
    return sum(1 << e for e in set(elements))


@lru_cache(maxsize=None)
def reference_generated(s, seed):
    """Mask of the ideal generated by the elements of the mask ``seed``,
    by the element-wise fixpoint of ``iseki.verify``."""
    return _mask(_generated_set(s, _members(seed)))


def reference_sum(s, family):
    """Sum of a family of ideal masks: the ideal generated by their union."""
    union = 0
    for a in family:
        union |= a
    return reference_generated(s, union)


@lru_cache(maxsize=None)
def reference_product(s, a, b):
    """Product of two ideal masks: the ideal generated by the element
    products."""
    products = {s.mul[x][y] for x in _members(a) for y in _members(b)}
    return reference_generated(s, _mask(products))


@lru_cache(maxsize=None)
def reference_radical(s, a):
    """Radical of an ideal mask: the elements with some positive power in
    it, from the power lists of ``iseki.verify``."""
    return _mask(
        r for r in range(s.n) if any((a >> x) & 1 for x in _powers(s, r))
    )


def reference_quasi_compact(spec, family_size_cap=3):
    """The quasi-compactness mechanism check computed per class: the sum
    identity over every family of at most ``family_size_cap`` ideals, with
    the family sums from ``reference_sum``, so it checks that the pairs
    of ``topology.check_quasi_compact`` decide the families; then the
    maximal rule over single ideals.  The reference for
    ``topology.check_quasi_compact``: None, or the first failing law as
    ``{"law", "witness"}``, a sum-identity witness being the first
    failing family."""
    s = spec.semiring
    masks = _ideal_masks_all(s)
    for size in range(1, family_size_cap + 1):
        for family in combinations(masks, size):
            inter = spec.full
            for a in family:
                inter &= spec.subbasis[a]
            if spec.subbasis[reference_sum(s, family)] != inter:
                return {"law": "sum-identity", "witness": [_members(a) for a in family]}
    if all(m in spec.points for m in maximal_ideal_masks(s)):
        for a in masks:
            if not spec.subbasis[a] and a != s.full_mask:
                return {"law": "maximal-rule", "witness": _members(a)}
    return None


def reference_irreducible_upsets(spec):
    """The irreducible up-set check point by point: each point's closure
    is the AND of the subbasic sets that pass a membership test for the
    point; the witness is the first point whose closure is not its
    up-set.  The reference for ``topology.check_irreducible_upsets``."""
    subbasic = spec.subbasis.values()
    return {
        "irreducible_upsets_witness": next(
            (
                _members(p)
                for i, p in enumerate(spec.points)
                if reduce(and_, (u for u in subbasic if (u >> i) & 1), spec.full)
                != spec.subbasis[p]
            ),
            None,
        )
    }


def reference_upset_laws(spec, family_size_cap=3):
    """The up-set laws computed per class through ``reference_sum``,
    ``reference_product`` and ``reference_radical``, with intersections as
    mask ANDs, and the generator identity through ``reference_generated``:
    the reference for ``topology.verify_upset_laws``."""
    s = spec.semiring
    law = _reference_failing_upset_law(spec, family_size_cap)
    up = spec.subbasis
    generator_witness = None
    for ideal, classification in classified_ideals(s):
        pulled = spec.full
        for g in classification.witness_dict()["generators"]:
            pulled &= up[reference_generated(s, 1 << g)]
        if up[ideal] != pulled:
            generator_witness = _members(ideal)
            break
    return {
        "upset_laws_witness": law,
        "generator_upset_witness": generator_witness,
    }


def _reference_failing_upset_law(spec, family_size_cap):
    s = spec.semiring
    masks = _ideal_masks_all(s)
    up = spec.subbasis

    zero_up = up.get(1, up_set(spec, 1))
    if zero_up != spec.full:
        return {"law": "zero-full", "witness": None}
    if up.get(s.full_mask, 0) != 0 and s.n > 1:
        return {"law": "improper-empty", "witness": None}

    for a in masks:
        for b in masks:
            if (a & b) == a and (up[a] & up[b]) != up[b]:
                return {"law": "antitone", "witness": [_members(a), _members(b)]}

    for a in masks:
        for b in masks:
            inter = up[a & b]
            union = up[a] | up[b]
            if (union & inter) != union:
                return {
                    "law": "union-inside-intersection",
                    "witness": [_members(a), _members(b)],
                }
            if (inter & up[reference_product(s, a, b)]) != inter:
                return {
                    "law": "intersection-inside-product",
                    "witness": [_members(a), _members(b)],
                }

    for size in range(1, family_size_cap + 1):
        for family in combinations(masks, size):
            inter = spec.full
            for a in family:
                inter &= up[a]
            if up[reference_sum(s, family)] != inter:
                return {
                    "law": "sum-identity",
                    "witness": [_members(a) for a in family],
                }

    radicals = {a: reference_radical(s, a) for a in masks}
    for a in masks:
        r = radicals[a]
        if (up[r] & up[a]) != up[r]:
            return {"law": "radical-up-shrinks", "witness": _members(a)}

    all_points_radical = all(reference_radical(s, p) == p for p in spec.points)
    ups_stable = all(up[radicals[a]] == up[a] for a in masks)
    if all_points_radical != ups_stable:
        return {
            "law": "radical-spectrum-equivalence",
            "witness": {
                "all_points_radical": all_points_radical,
                "upsets_radical_stable": ups_stable,
            },
        }
    return None
