"""Spectra of distinguished ideal classes and their coarse lower topology.

A spectrum is the ordered set of proper ideals of one semiring that
belong to one class (prime, maximal, radical, ...); each point is an
ideal mask (element i = bit i), as every ideal is.  Its Iseki space is the
topology whose closed sets are generated, as a closed subbasis, by the
up-sets

    up(a) = { x in points | a is a subset of x }

with a running over all ideals.  Every point is itself an ideal, so
up(point) is the smallest closed set containing the point and the space
is Alexandrov: its closed sets are exactly the point sets that are
up-closed under inclusion.  Point sets are bitmasks over point indices
(point i = bit i), and every separation/connectedness property is
decided exactly from the inclusion order.  The T0 (here the same
verdict as sobriety, see ``check_sober``), T1, connectedness and
generator-identity verdicts are their witnesses, None exactly when the
property holds, and a failed up-set law carries one.  Each
``check_*`` function (and ``verify_upset_laws``) returns exactly the
report fields it decides, under their report names, and ``CHECKS``
lists them all, so the sweep's topology report is the merge of their
dicts.

No check lists the closed sets: counting the up-sets of a poset is
#P-complete (Provan and Ball, SIAM J. Comput. 12, 1983).

A class only picks the points: its name (``parse_class`` gives the
canonical one) maps to a predicate on an ideal's classification.  One
``Spectrum`` object is the Iseki space, its semiring's tables plus its
points, with the closed sets built on first use.  ``spectrum(s, cls)``
caches one space per (tables, point set), so classes that pick the same
ideals share one space and its closed sets; a space holds no class.
A space carries its semiring, so the checks take the space alone; that
semiring is the first one with these tables that asked, so nothing here
reads its id.
"""

from functools import cached_property, lru_cache, reduce

from .errors import HypothesisUnmet, NoUnitDecomposition, ParseError
from .ideals import (
    _ideal_masks_all,
    classified_ideals,
    ideal_algebra,
    ideal_from_members,
    is_ideal_mask,
    jacobson_radical,
    mask_members,
    maximal_ideal_masks,
)

# Each built-in class tag and the classification flag that selects its
# points; every proper ideal is a point of "proper".
CLASS_FLAGS = {
    "proper": None,
    "prime": "prime",
    "maximal": "maximal",
    "primary": "primary",
    "irreducible": "irreducible",
    "strongly-irreducible": "strongly_irreducible",
    "radical": "radical_ideal",
    "principal": "principal",
}


def _parse_class(text):
    """The canonical name of a class and its point predicate, which
    reads an ideal's classification."""
    text = text.strip()
    if text in CLASS_FLAGS:
        flag = CLASS_FLAGS[text]
        return text, lambda c: flag is None or getattr(c, flag)
    for open_, close in (("(", ")"), (":", "")):
        if text.startswith("fg" + open_) and text.endswith(close):
            body = text[3:-1] if open_ == "(" else text[3:]
            try:
                k = int(body)
            except ValueError:
                break
            if k < 0:
                raise ParseError(
                    f"spectrum class {text!r} needs a generator bound of at least 0"
                )
            return f"fg({k})", lambda c: c.min_generators <= k
    raise ParseError(f"unknown spectrum class {text!r}")


def parse_class(text):
    """The canonical name of a class: a tag of ``CLASS_FLAGS``, or
    'fg(k)' (written 'fg(k)' or 'fg:k') for the ideals with at most k
    generators."""
    return _parse_class(text)[0]


class Spectrum:
    """The Iseki space on ``points``, an ascending tuple of proper ideal
    masks of ``semiring``, with its closed sets decided from the inclusion
    order on first use.  Equality and hash compare the tables (a
    semiring's equality) and the points, which are read-only because
    ``spectrum`` caches the space by them and derives the rest once.

    ``index_of`` maps each point mask to its index.  ``columns[x]`` is
    the point set of the points holding element x, the space's one
    incidence of points and elements.  ``subbasis`` maps each ideal mask
    of the semiring to its up-set, the AND of the columns of its members
    (``up_set``); ``up[i]`` is the up-set of point i, which is both the
    closure of the point and its principal up-set.  A point set is
    closed exactly when it is up-closed, so its closure is the union of
    its points' up-sets.
    ``components`` are the connected components, ascending: the classes
    of points linked by a chain of overlapping up-sets (the comparability
    graph).
    """

    def __init__(self, semiring, points):
        self.__dict__.update(semiring=semiring, points=points)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Spectrum.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not Spectrum:
            return NotImplemented
        return (self.semiring, self.points) == (other.semiring, other.points)

    def __hash__(self):
        return hash((self.semiring, self.points))

    @property
    def size(self):
        return len(self.points)

    @property
    def full(self):
        return (1 << len(self.points)) - 1

    def to_json(self):
        """The points.  No semiring id or class: the space is cached per
        (tables, point set), so its ``semiring`` may carry another id
        that names the same tables."""
        return {"points": [mask_members(self.semiring, p) for p in self.points]}

    @cached_property
    def index_of(self):
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def columns(self):
        return tuple(
            sum(1 << i for i, p in enumerate(self.points) if (p >> x) & 1)
            for x in range(self.semiring.n)
        )

    @cached_property
    def subbasis(self):
        return {m: up_set(self, m) for m in _ideal_masks_all(self.semiring)}

    @cached_property
    def up(self):
        return tuple(self.subbasis[p] for p in self.points)

    @cached_property
    def components(self):
        comps = []
        for u in self.up:
            merged = u
            rest = []
            for c in comps:
                if c & u:
                    merged |= c
                else:
                    rest.append(c)
            comps = rest + [merged]
        return sorted(comps)

    @cached_property
    def sum_identity(self):
        """The first (a, Rg), ideals a ascending and then elements g, with
        up(a + Rg) != up(a) & up(Rg), or None; a point holds a + Rg exactly
        when it holds a and g.  These pairs decide every finite family: for
        an ideal b with members g1, ..., gk, a + b = a + Rg1 + ... + Rgk,
        each partial sum an ideal, so up(a + b) = up(a) & U, U the meet of
        the up(Rgi).  For a = {0} that is up(b) = up({0}) & U, and up(a)
        lies in up({0}), so up(a + b) = up(a) & up(b); induction on the
        family's size does the rest.  Memoized for the up-set laws and
        quasi-compactness."""
        up = self.subbasis
        algebra = ideal_algebra(self.semiring)
        return next(
            (
                (a, rg)
                for a, row in algebra.joins.items()
                for rg, total in zip(algebra.principals, row)
                if up[total] != (up[a] & up[rg])
            ),
            None,
        )

    def closure(self, point_set):
        out = 0
        for i, u in enumerate(self.up):
            if (point_set >> i) & 1:
                out |= u
        return out

    def irreducible_closed_sets(self):
        """Nonempty closed sets that are not unions of two proper closed
        subsets: in an Alexandrov space, the principal up-sets."""
        return tuple(sorted(set(self.up)))


def spectrum(s, cls):
    """The cached space of the points of the class named ``cls``: its
    points ascend by ideal bitset, and the whole semiring is never one.
    Two classes that pick the same points of the same tables get the
    same space object."""
    return _closed_family_cached(s, _class_points(s, cls))


@lru_cache(maxsize=None)
def _class_points(s, cls):
    """The points of a class; the name is parsed once per (tables, name)."""
    _, accepts = _parse_class(cls)
    return tuple(mask for mask, c in classified_ideals(s) if accepts(c))


@lru_cache(maxsize=None)
def _closed_family_cached(s, points):
    # The one cache of spaces; perfbench/sample.py reads it by this name.
    return Spectrum(semiring=s, points=points)


def up_set(spec, mask):
    """Point-set bitmask of the points containing the ideal with element
    bitmask ``mask``: a point holds the ideal exactly when it holds each
    member, so this is the AND of the members' columns (the derivation
    operator of formal concept analysis), the whole space for the empty
    mask.  The improper ideal gives the empty set since no proper point
    can contain it."""
    out = spec.full
    for x, column in enumerate(spec.columns):
        if (mask >> x) & 1:
            out &= column
    return out


def point_set_members(spec, point_set):
    return [
        mask_members(spec.semiring, p)
        for i, p in enumerate(spec.points)
        if (point_set >> i) & 1
    ]


def _maximals_present(spec):
    """Whether every maximal ideal of the semiring is a point."""
    return set(maximal_ideal_masks(spec.semiring)) <= set(spec.points)


# ---------------------------------------------------------------------------
# Separation / compactness / connectedness checks.  Each check returns
# exactly the report fields it decides, under their report names, as a
# plain dict ready for JSON.
# ---------------------------------------------------------------------------

def check_t0(spec):
    """T0: no two points have the same closure.  The witness is the first
    pair (i, j) in index order with up[i] = up[j]: the points grouped by
    up-set in one pass, the first two members of the first group that
    holds two."""
    groups = {}
    for i, u in enumerate(spec.up):
        groups.setdefault(u, []).append(i)
    shared = next((g for g in groups.values() if len(g) > 1), None)
    if shared is None:
        return {"t0_witness": None}
    i, j = shared[:2]
    return {"t0_witness": point_set_members(spec, 1 << i | 1 << j)}


def check_t1(spec):
    """Singleton-closure T1 test plus the "points are exactly the maximal
    ideals" test.

    The witness, the first point whose closure is not itself and None
    when the space is T1, agrees with the predicate whenever every
    maximal ideal is a point; both are reported so disagreements are
    visible rather than asserted away.
    ``fg(0)`` on C3 is T1 (its one point is {0}) but {0} is not maximal:
    ``tests/test_topology.py::test_t1_equivalence_fg0_c3`` pins it.
    """
    witness = next(
        (
            mask_members(spec.semiring, p)
            for i, p in enumerate(spec.points)
            if spec.up[i] != 1 << i
        ),
        None,
    )
    return {
        "t1_predicate": set(spec.points) == set(maximal_ideal_masks(spec.semiring)),
        "t1_witness": witness,
    }


def check_sober(spec):
    """The generic-point criterion of sobriety.

    Whenever an ideal has a nonempty irreducible up-set u, the
    intersection of all points containing the ideal must itself be a
    point.  That intersection is the set of elements x with u inside
    ``columns[x]``, and the irreducible up-sets are the principal ones,
    each the up-set of its point.

    Direct sobriety, that every nonempty irreducible closed set has
    exactly one generic point, is T0 here, so ``check_t0`` decides it and
    no field restates it.  The points are ideals, so up(p) is the least
    closed set holding p (``Spectrum``).  A closed set is the union of
    the up-sets of its points, finitely many, so the nonempty irreducible
    closed sets are exactly the up(p)
    (``Spectrum.irreducible_closed_sets``).  A point q is a generic point
    of up(p) exactly when its closure up(q) is up(p).  So every up(p) has
    the generic point p, and a second one exactly when another point
    shares its up-set: sober and T0 are the same verdict.
    """
    s, columns = spec.semiring, spec.columns
    return {
        "sober_criterion": all(
            ideal_from_members(s, [x for x, c in enumerate(columns) if (c & u) == u])
            in spec.index_of
            for u in spec.irreducible_closed_sets()
        )
    }


def check_quasi_compact(spec):
    """The proof mechanism of quasi-compactness; every finite space is
    quasi-compact, so only the mechanism is reported.

    The sum identity: every finite family's up-sets meet in the up-set
    of its sum, which the (ideal, principal ideal) pairs decide
    (``Spectrum.sum_identity``).  The maximal rule, when every maximal
    ideal is a point: up-sets that meet in the empty set have the
    improper sum.  A family's sum is one ideal with that up-set, so the
    rule is "up(a) empty forces a = S" over single ideals; each proper
    ideal lies in a maximal one, a point.
    """
    full_mask = spec.semiring.full_mask
    return {
        "quasi_compact_sum_identity": spec.sum_identity is None,
        "quasi_compact_maximal_rule": not _maximals_present(spec)
        or all(u or a == full_mask for a, u in spec.subbasis.items()),
    }


def check_connected(spec):
    """Connectivity from the connected components; the witness is the
    lowest clopen set, the lowest component, and None when the space is
    connected (an empty space has no components).  Whether the zero
    ideal is a point, the theorem's hypothesis, is read from the
    reported points."""
    comps = spec.components
    witness = point_set_members(spec, comps[0]) if len(comps) > 1 else None
    return {"connected_witness": witness}


def check_disconnection(spec):
    """The strong disconnection witness, and the idempotent extracted from
    it with the extraction's status: ``ok``, ``no-witness``,
    ``hypothesis:<name>`` for an unmet hypothesis, or
    ``mechanism-failure:<reason>``."""
    witness = strong_disconnection_witness(spec)
    if witness is None:
        return {
            "disconnection_witness": None,
            "idempotent": None,
            "idempotent_status": "no-witness",
        }
    idempotent = None
    try:
        idempotent = idempotent_from_disconnection(spec, witness)
        status = "ok"
    except HypothesisUnmet as exc:
        status = f"hypothesis:{exc.hypothesis}"
    except NoUnitDecomposition as exc:
        status = f"mechanism-failure:{exc}"
    s = spec.semiring
    left, right = witness
    return {
        "disconnection_witness": {
            "left": [mask_members(s, a) for a in left],
            "right": [mask_members(s, b) for b in right],
        },
        "idempotent": idempotent,
        "idempotent_status": status,
    }


def check_irreducible_upsets(spec):
    """Each point's up-set must be the closure of the point, computed from
    its definition: the intersection of every subbasic closed set that
    contains the point.  Each subbasic set u is ANDed into the closures
    of the points in u, so the cost is the sum of the |u|, not one test
    per (point, subbasic set).  The closure of a point is irreducible, so
    each point's up-set is then an irreducible closed set."""
    closures = [spec.full] * spec.size
    for u in spec.subbasis.values():
        rest = u
        while rest:
            low = rest & -rest
            closures[low.bit_length() - 1] &= u
            rest ^= low
    return {"irreducible_upsets": tuple(closures) == spec.up}


def strong_disconnection_witness(spec):
    """Two nonempty families of subbasic closed sets whose unions partition
    the space, or None.

    Every up-set is a union of subbasic sets, so the sides are the lowest
    component and its complement.  Each side is returned as a list of
    ideal masks (the lowest per distinct up-set); a side collapses
    to a single ideal whenever the side's union is itself an up-set.
    """
    comps = spec.components
    if len(comps) < 2:
        return None
    lowest_ideal_for = {}
    for m, u in sorted(spec.subbasis.items()):
        if u:
            lowest_ideal_for.setdefault(u, m)

    def side(mask):
        if mask in lowest_ideal_for:
            return [lowest_ideal_for[mask]]
        return [m for u, m in sorted(lowest_ideal_for.items()) if (u & mask) == u]

    return side(comps[0]), side(spec.full ^ comps[0])


def idempotent_from_disconnection(spec, witness):
    """Extract a nontrivial idempotent from a strong disconnection of the
    space: two lists of ideal masks of its semiring.

    Requires the witness, the spectrum to contain every maximal ideal,
    and a zero Jacobson radical.  Reduces the witness families to a
    single ideal per side by taking ideal products (``IdealAlgebra.product``,
    one per reduction step), decomposes 1 = u + v across the two sides,
    and returns the verified idempotent u.
    """
    if witness is None:
        raise HypothesisUnmet("witness", "no strong disconnection witness")
    s = spec.semiring
    left, right = witness
    if not left or not right:
        raise HypothesisUnmet("witness", "a side of the witness is empty")
    if not all(is_ideal_mask(s, a) for a in [*left, *right]):
        raise HypothesisUnmet("witness", "a side holds a non-ideal of the semiring")
    up = spec.subbasis
    left_union = 0
    for a in left:
        left_union |= up[a]
    right_union = 0
    for b in right:
        right_union |= up[b]
    if (
        left_union == 0
        or right_union == 0
        or (left_union & right_union) != 0
        or (left_union | right_union) != spec.full
    ):
        raise HypothesisUnmet("witness", "sides do not partition the spectrum")
    if not _maximals_present(spec):
        raise HypothesisUnmet(
            "maximal-containment", "spectrum misses a maximal ideal"
        )
    if jacobson_radical(s) != 1:
        raise HypothesisUnmet("jacobson", "Jacobson radical is not zero")

    algebra = ideal_algebra(s)
    x = reduce(algebra.product, left)
    y = reduce(algebra.product, right)
    if algebra.generated(x | y) != s.full_mask:
        raise NoUnitDecomposition("reduced ideals do not sum to the whole semiring")
    if algebra.product(x, y) != 1:
        raise NoUnitDecomposition("reduced ideal product is not the zero ideal")
    for u in mask_members(s, x):
        for v in mask_members(s, y):
            if s.add[u][v] == s.one:
                if s.mul[u][u] != u or u == 0 or u == s.one:
                    raise NoUnitDecomposition(
                        f"decomposition 1 = {u} + {v} fails idempotence"
                    )
                return u
    raise NoUnitDecomposition("no decomposition of 1 across the two sides")


def verify_upset_laws(spec):
    """Exhaustively verify the order/lattice laws of the up-set map, and the
    generator identity.

    Laws: (1) antitone, with the zero ideal mapping to the full space and
    the whole semiring to the empty set; (2) up(a) | up(b) inside
    up(a&b) inside up(ab); (3) intersections of up-sets equal the up-set
    of the ideal sum, for every finite family, which the (ideal,
    principal ideal) pairs of ``Spectrum.sum_identity`` decide, its
    witness the first failing pair; (4) up(a) contains up(radical(a));
    (5) every point is a radical ideal if and only if up(a) =
    up(radical(a)) for every ideal a.  The join pairs (a, a + Rg) decide
    (1) and the principal pairs (Rg, Rh) decide (2), as
    ``_first_failing_upset_law`` proves.  ``upset_laws`` is "pass" or the
    first failing law with its witness.  The generator identity: the
    up-set of each proper ideal is the intersection of the up-sets of the
    principal ideals of its generator seed (``IdealAlgebra.seeds``).
    """
    s = spec.semiring
    up = spec.subbasis
    law = _first_failing_upset_law(spec)
    algebra = ideal_algebra(s)
    principals = algebra.principals
    generator_witness = None
    for ideal in algebra.masks[:-1]:
        pulled = spec.full
        for g in algebra.seeds[ideal]:
            pulled &= up[principals[g]]
        if up[ideal] != pulled:
            generator_witness = mask_members(s, ideal)
            break
    return {
        "upset_laws": "pass" if law is None else law,
        "generator_upset_witness": generator_witness,
    }


def _first_failing_upset_law(spec):
    """The first up-set law of ``verify_upset_laws`` that fails, as
    ``{"law", "witness"}``, or None.

    Antitone is checked as up(a + Rg) inside up(a), witness [a, a + Rg].
    For ideals a inside b, adding the members of b to a one at a time is
    a chain of joins from a to b, so transitivity gives up(b) in up(a).

    Law (2) is checked as up(Rg) | up(Rh) inside up(Rg & Rh) inside
    up(R(gh)), witness [Rg, Rh].  For ideals a and b, the union half
    follows from (1), a & b being an ideal inside a and inside b.  And ab
    is the sum of the R(gh), g in a and h in b, so up(ab) is the meet of
    their up-sets by (3) on the joins that ``generated`` folds, and
    up(a & b) lies in each up(Rg & Rh) by (1).
    """
    s = spec.semiring
    algebra = ideal_algebra(s)
    principals = algebra.principals
    up = spec.subbasis

    if up[1] != spec.full:
        return {"law": "zero-full", "witness": None}
    if up[s.full_mask] != 0 and s.n > 1:
        return {"law": "improper-empty", "witness": None}

    for a, row in algebra.joins.items():
        for total in row:
            if up[total] & ~up[a]:
                return {
                    "law": "antitone",
                    "witness": [mask_members(s, a), mask_members(s, total)],
                }

    for g, rg in enumerate(principals):
        for h, rh in enumerate(principals):
            inter_up = up[rg & rh]
            if (up[rg] | up[rh]) & ~inter_up:
                law = "union-inside-intersection"
            elif inter_up & ~up[principals[s.mul[g][h]]]:
                law = "intersection-inside-product"
            else:
                continue
            return {"law": law, "witness": [mask_members(s, rg), mask_members(s, rh)]}

    failure = spec.sum_identity
    if failure is not None:
        return {
            "law": "sum-identity",
            "witness": [mask_members(s, a) for a in failure],
        }

    radicals = algebra.radicals
    for a, r in radicals.items():
        if (up[r] & up[a]) != up[r]:
            return {"law": "radical-up-shrinks", "witness": mask_members(s, a)}

    all_points_radical = all(radicals[p] == p for p in spec.points)
    ups_stable = all(up[r] == up[a] for a, r in radicals.items())
    if all_points_radical != ups_stable:
        return {
            "law": "radical-spectrum-equivalence",
            "witness": {
                "all_points_radical": all_points_radical,
                "upsets_radical_stable": ups_stable,
            },
        }
    return None


# Each ``iseki topology --checks`` group and the check whose report fields
# it prints; the sweep's topology report merges every one of them.
CHECKS = {
    "t0": check_t0,
    "t1": check_t1,
    "sober": check_sober,
    "compact": check_quasi_compact,
    "connected": check_connected,
    "upset-laws": verify_upset_laws,
    "irreducible-upsets": check_irreducible_upsets,
    "disconnection": check_disconnection,
}
