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
decided exactly from the inclusion order; a failed T0, T1, sobriety,
connectedness or up-set law verdict carries a witness.  Each ``check_*``
function (and ``verify_upset_laws``) returns exactly the report fields
it decides, under their report names, and ``CHECKS`` lists them all, so
the sweep's topology report is the merge of their dicts.

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

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from operator import and_

from .errors import HypothesisUnmet, NoUnitDecomposition, ParseError
from .ideals import (
    _ideal_masks_all,
    classified_ideals,
    ideal_algebra,
    is_ideal_mask,
    jacobson_radical,
    mask_members,
    maximal_ideal_masks,
)
from .semiring import FiniteSemiring

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
# The ideal families of the sum identity (quasi-compactness and up-set
# law 3) have at most this many members.
FAMILY_SIZE_CAP = 3


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


@dataclass(frozen=True)
class Spectrum:
    """The Iseki space on ``points``, an ascending tuple of proper ideal
    masks of ``semiring``, with its closed sets decided from the inclusion
    order on first use.  Equality and hash compare the tables (a
    semiring's equality) and the points.

    ``subbasis`` maps each ideal mask of the semiring to its up-set;
    ``up[i]`` is the up-set of point i, which is both the closure of the
    point and its principal up-set.  A point set is closed exactly when
    it is up-closed, so its closure is the union of its points' up-sets.
    ``components`` are the connected components, ascending: the classes
    of points linked by a chain of overlapping up-sets (the comparability
    graph).
    """

    semiring: FiniteSemiring
    points: tuple

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
        """One walk over every family of at most ``FAMILY_SIZE_CAP`` ideals
        of the semiring, in the order that ``combinations`` gives the
        families of the ascending ideal masks.  Each family's sum folds
        ``IdealAlgebra.sums`` from the zero ideal; the sum is the lattice
        join, so the fold is associative.  The first family whose up-set
        intersection is not the up-set of its sum (None when the identity
        holds), and whether every family with an empty up-set intersection
        has the improper sum.  Memoized, so the up-set laws and the
        quasi-compactness check read the one walk."""
        s = self.semiring
        algebra = ideal_algebra(s)
        sums = algebra.sums
        full = self.full
        failure = None
        empty_sums_improper = True
        for size in range(1, FAMILY_SIZE_CAP + 1):
            for family in combinations(algebra.masks, size):
                total, inter = 1, full
                for a in family:
                    total = sums[total][a]
                    inter &= self.subbasis[a]
                if failure is None and self.subbasis[total] != inter:
                    failure = family
                if inter == 0 and total != s.full_mask:
                    empty_sums_improper = False
        return failure, empty_sums_improper

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

    def closed_set_count(self):
        """Number of up-sets.  The lowest point x of a remaining set R is
        minimal in R (points ascend by ideal bitset), so an up-set of R
        either omits x or contains up[x]:
        count(R) = count(R - {x}) + count(R - up[x])."""
        count = {0: 1}
        stack = [self.full]
        while stack:
            r = stack[-1]
            if r in count:
                stack.pop()
                continue
            low = r & -r
            rests = (r ^ low, r & ~self.up[low.bit_length() - 1])
            todo = [q for q in rests if q not in count]
            if todo:
                stack.extend(todo)
            else:
                count[r] = count[rests[0]] + count[rests[1]]
                stack.pop()
        return count[self.full]


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
    bitmask ``mask``; the improper ideal gives the empty set since no
    proper point can contain it."""
    out = 0
    for i, p in enumerate(spec.points):
        if (p & mask) == mask:
            out |= 1 << i
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
    """T0: no two points have the same closure."""
    up = spec.up
    for i in range(spec.size):
        for j in range(i + 1, spec.size):
            if up[i] == up[j]:
                return {
                    "t0": False,
                    "t0_witness": point_set_members(spec, 1 << i | 1 << j),
                }
    return {"t0": True, "t0_witness": None}


def check_t1(spec):
    """Singleton-closure T1 test plus the "points are exactly the maximal
    ideals" test.

    The two booleans agree whenever every maximal ideal is a point; both
    are reported so disagreements are visible rather than asserted away.
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
        "t1": witness is None,
        "t1_predicate": set(spec.points) == set(maximal_ideal_masks(spec.semiring)),
        "t1_witness": witness,
    }


def check_sober(spec):
    """Direct sobriety versus the generic-point criterion.

    Direct: every nonempty irreducible closed set is the closure of
    exactly one point.  Criterion: whenever an ideal has a nonempty
    irreducible up-set, the intersection of all points containing the
    ideal is itself a point.  The theorem says the two agree.
    """
    irr = spec.irreducible_closed_sets()
    witness = next(
        (point_set_members(spec, k) for k in irr if spec.up.count(k) != 1), None
    )

    criterion = True
    irr_set = set(irr)
    point_mask_set = set(spec.points)
    for u in spec.subbasis.values():
        if u == 0 or u not in irr_set:
            continue
        inter = spec.semiring.full_mask
        for i, p in enumerate(spec.points):
            if (u >> i) & 1:
                inter &= p
        if inter not in point_mask_set:
            criterion = False
            break

    return {
        "sober": witness is None,
        "sober_criterion": criterion,
        "sober_witness": witness,
    }


def check_quasi_compact(spec):
    """Finite spaces are quasi-compact; the value is the proof mechanism.

    For every ideal family of at most ``FAMILY_SIZE_CAP`` members, the
    intersection of the up-sets must equal the up-set of the ideal sum;
    and when the spectrum contains every maximal ideal, an empty up-set
    intersection forces the sum to be improper.  Both read the one walk
    of ``Spectrum.sum_identity``.
    """
    failure, empty_sums_improper = spec.sum_identity
    return {
        "quasi_compact": True,
        "quasi_compact_sum_identity": failure is None,
        "quasi_compact_maximal_rule": empty_sums_improper
        or not _maximals_present(spec),
    }


def check_connected(spec):
    """Connectivity from the connected components; the witness is the
    lowest clopen set, the lowest component.  Empty spectra are degenerate."""
    if spec.size == 0:
        return {
            "connected": "degenerate",
            "connected_witness": None,
            "zero_ideal_in_points": False,
        }
    comps = spec.components
    witness = point_set_members(spec, comps[0]) if len(comps) > 1 else None
    return {
        "connected": witness is None,
        "connected_witness": witness,
        "zero_ideal_in_points": 1 in spec.points,
    }


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
    contains the point.  The closure of a point is irreducible, so each
    point's up-set is then an irreducible closed set."""
    subbasic = spec.subbasis.values()
    return {
        "irreducible_upsets": all(
            reduce(and_, (u for u in subbasic if (u >> i) & 1), spec.full)
            == spec.subbasis[p]
            for i, p in enumerate(spec.points)
        )
    }


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
    single ideal per side by taking ideal products, decomposes 1 = u + v
    across the two sides, and returns the verified idempotent u.
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
    products = algebra.products
    x = reduce(lambda acc, a: products[acc][a], left)
    y = reduce(lambda acc, b: products[acc][b], right)
    if algebra.sums[x][y] != s.full_mask:
        raise NoUnitDecomposition("reduced ideals do not sum to the whole semiring")
    if products[x][y] != 1:
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
    of the ideal sum, for families of at most ``FAMILY_SIZE_CAP``, read
    from ``Spectrum.sum_identity``; (4) up(a) contains
    up(radical(a)); (5) every point is a radical ideal if and only if
    up(a) = up(radical(a)) for every ideal a.  ``upset_laws`` is "pass"
    or the first failing law with its witness.  The generator identity:
    the up-set of each ideal is the intersection of the up-sets of the
    principal ideals of its generators.
    """
    s = spec.semiring
    up = spec.subbasis
    law = _first_failing_upset_law(spec)
    principals = ideal_algebra(s).principals
    generator_witness = None
    for ideal, classification in classified_ideals(s):
        pulled = spec.full
        for g in classification.witness_dict()["generators"]:
            pulled &= up[principals[g]]
        if up[ideal] != pulled:
            generator_witness = mask_members(s, ideal)
            break
    return {
        "upset_laws": "pass" if law is None else {"holds": False, **law},
        "generator_upset_identity": generator_witness is None,
        "generator_upset_witness": generator_witness,
    }


def _first_failing_upset_law(spec):
    """The first up-set law of ``verify_upset_laws`` that fails, as
    ``{"law", "witness"}``, or None."""
    s = spec.semiring
    algebra = ideal_algebra(s)
    masks = algebra.masks
    up = spec.subbasis

    if up[1] != spec.full:
        return {"law": "zero-full", "witness": None}
    if up[s.full_mask] != 0 and s.n > 1:
        return {"law": "improper-empty", "witness": None}

    for a in masks:
        for b in masks:
            if (a & b) == a and (up[a] & up[b]) != up[b]:
                return {
                    "law": "antitone",
                    "witness": [mask_members(s, a), mask_members(s, b)],
                }

    for a in masks:
        products = algebra.products[a]
        for b in masks:
            inter_up = up[a & b]
            union = up[a] | up[b]
            if (union & inter_up) != union:
                return {
                    "law": "union-inside-intersection",
                    "witness": [mask_members(s, a), mask_members(s, b)],
                }
            if (inter_up & up[products[b]]) != inter_up:
                return {
                    "law": "intersection-inside-product",
                    "witness": [mask_members(s, a), mask_members(s, b)],
                }

    failure, _ = spec.sum_identity
    if failure is not None:
        return {
            "law": "sum-identity",
            "witness": [mask_members(s, a) for a in failure],
        }

    radicals = algebra.radicals
    for a in masks:
        r = radicals[a]
        if (up[r] & up[a]) != up[r]:
            return {"law": "radical-up-shrinks", "witness": mask_members(s, a)}

    all_points_radical = all(radicals[p] == p for p in spec.points)
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
