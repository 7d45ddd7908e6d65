"""Spectra of distinguished ideal classes and their coarse lower topology.

A spectrum is the ordered set of proper ideals of one semiring that
belong to one class (prime, maximal, radical, ...).  Its Iseki space is the
topology whose closed sets are generated, as a closed subbasis, by the
up-sets

    up(a) = { x in points | a is a subset of x }

with a running over all ideals.  Every point is itself an ideal, so
up(point) is the smallest closed set containing the point and the space
is Alexandrov: its closed sets are exactly the point sets that are
up-closed under inclusion.  Point sets are bitmasks over point indices,
and every separation/connectedness property is decided exactly from the
inclusion order; a failed T0, T1, sobriety, connectedness or up-set law
verdict carries a witness.  Each ``check_*`` function (and
``verify_upset_laws``) returns exactly the report fields it decides,
under their report names, so the sweep's topology report is the merge
of their dicts.  One ``Spectrum`` object is the Iseki space: the points
and, built on first use, the closed sets; ``spectrum(s, cls)`` caches one
per (semiring, class).
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
    ideal_from_mask,
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
CLASS_TAGS = tuple(CLASS_FLAGS)
# The ideal families of the sum identity (quasi-compactness and up-set
# law 3) have at most this many members.
FAMILY_SIZE_CAP = 3


@dataclass(frozen=True)
class SpectrumClass:
    """A class of proper ideals: a tag of ``CLASS_FLAGS``, or ``fg`` with
    the generator bound ``k`` (the ideals with at most k generators)."""

    tag: str
    k: int = -1

    def display(self):
        if self.tag == "fg":
            return f"fg({self.k})"
        return self.tag

    def accepts(self, classification):
        if self.tag == "fg":
            return classification.min_generators <= self.k
        if self.tag not in CLASS_FLAGS:
            raise ValueError(f"unknown spectrum class tag {self.tag!r}")
        flag = CLASS_FLAGS[self.tag]
        return flag is None or getattr(classification, flag)


def parse_class(text):
    """Parse a class tag like 'prime' or 'fg(2)' / 'fg:2'."""
    text = text.strip()
    if text in CLASS_TAGS:
        return SpectrumClass(tag=text)
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
            return SpectrumClass(tag="fg", k=k)
    raise ParseError(f"unknown spectrum class {text!r}")


@dataclass(frozen=True)
class Spectrum:
    """The Iseki space on an ascending tuple of proper ideals of
    ``semiring``, with its closed sets decided from the inclusion order on
    first use.

    ``subbasis`` maps each ideal mask of the semiring to its up-set;
    ``up[i]`` is the up-set of point i, which is both the closure of the
    point and its principal up-set.  A point set is closed exactly when
    it is up-closed, so its closure is the union of its points' up-sets.
    ``components`` are the connected components, ascending: the classes
    of points linked by a chain of overlapping up-sets (the comparability
    graph).
    """

    semiring: FiniteSemiring
    class_tag: str
    points: tuple

    @property
    def size(self):
        return len(self.points)

    @property
    def full(self):
        return (1 << len(self.points)) - 1

    def point_masks(self):
        return tuple(p.mask for p in self.points)

    def to_json(self):
        return {
            "semiring": self.semiring.id,
            "class": self.class_tag,
            "points": [list(p.members) for p in self.points],
        }

    @cached_property
    def subbasis(self):
        return {m: up_set(self, m) for m in _ideal_masks_all(self.semiring)}

    @cached_property
    def up(self):
        return tuple(self.subbasis[p.mask] for p in self.points)

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
        families of the ascending ideal masks, as
        ``IdealAlgebra.family_sums`` does.  The first family whose up-set
        intersection is not the up-set of its sum (None when the identity
        holds), and whether every family with an empty up-set intersection
        has the improper sum.  Memoized, so the up-set laws and the
        quasi-compactness check read the one walk."""
        s = self.semiring
        algebra = ideal_algebra(s)
        full = self.full
        failure = None
        empty_sums_improper = True
        for size in range(1, FAMILY_SIZE_CAP + 1):
            families = combinations(algebra.masks, size)
            for family, total in zip(families, algebra.family_sums(size)):
                inter = full
                for a in family:
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
    """The cached space of a class (a ``SpectrumClass`` or its name): its
    points ascend by ideal bitset, and the whole semiring is never one."""
    if isinstance(cls, str):
        cls = parse_class(cls)
    return _closed_family_cached(s, cls)


@lru_cache(maxsize=None)
def _closed_family_cached(s, cls):
    # The one cache of spaces; perfbench/sample.py reads it by this name.
    points = tuple(
        ideal
        for ideal, classification in classified_ideals(s)
        if cls.accepts(classification)
    )
    return Spectrum(semiring=s, class_tag=cls.display(), points=points)


def up_set(spec, mask):
    """Point-set bitmask of the points containing the ideal with element
    bitmask ``mask``; the improper ideal gives the empty set since no
    proper point can contain it."""
    out = 0
    for i, p in enumerate(spec.points):
        if (p.mask & mask) == mask:
            out |= 1 << i
    return out


def point_set_members(spec, point_set):
    return [list(spec.points[i].members) for i in range(spec.size) if (point_set >> i) & 1]


# ---------------------------------------------------------------------------
# Separation / compactness / connectedness checks.  Each check returns
# exactly the report fields it decides, under their report names, as a
# plain dict ready for JSON.
# ---------------------------------------------------------------------------

def check_t0(s, spec):
    """T0: no two points have the same closure."""
    up = spec.up
    for i in range(spec.size):
        for j in range(i + 1, spec.size):
            if up[i] == up[j]:
                return {
                    "t0": False,
                    "t0_witness": [
                        list(spec.points[i].members),
                        list(spec.points[j].members),
                    ],
                }
    return {"t0": True, "t0_witness": None}


def check_t1(s, spec):
    """Singleton-closure T1 test plus the "points are exactly the maximal
    ideals" test.

    The two booleans agree whenever every maximal ideal is a point; both
    are reported so disagreements are visible rather than asserted away.
    ``fg(0)`` on C3 is T1 (its one point is {0}) but {0} is not maximal:
    ``tests/test_topology.py::test_t1_equivalence_fg0_c3`` pins it.
    """
    witness = next(
        (list(p.members) for i, p in enumerate(spec.points) if spec.up[i] != 1 << i),
        None,
    )
    return {
        "t1": witness is None,
        "t1_predicate": set(spec.point_masks()) == set(maximal_ideal_masks(s)),
        "t1_witness": witness,
    }


def check_sober(s, spec):
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
    point_mask_set = set(spec.point_masks())
    for u in spec.subbasis.values():
        if u == 0 or u not in irr_set:
            continue
        inter = s.full_mask
        for i in range(spec.size):
            if (u >> i) & 1:
                inter &= spec.points[i].mask
        if inter not in point_mask_set:
            criterion = False
            break

    return {
        "sober": witness is None,
        "sober_criterion": criterion,
        "sober_witness": witness,
    }


def check_quasi_compact(s, spec):
    """Finite spaces are quasi-compact; the value is the proof mechanism.

    For every ideal family of at most ``FAMILY_SIZE_CAP`` members, the
    intersection of the up-sets must equal the up-set of the ideal sum;
    and when the spectrum contains every maximal ideal, an empty up-set
    intersection forces the sum to be improper.  Both read the one walk
    of ``Spectrum.sum_identity``.
    """
    failure, empty_sums_improper = spec.sum_identity
    point_mask_set = set(spec.point_masks())
    maximals_present = all(m in point_mask_set for m in maximal_ideal_masks(s))
    return {
        "quasi_compact": True,
        "quasi_compact_sum_identity": failure is None,
        "quasi_compact_maximal_rule": empty_sums_improper or not maximals_present,
    }


def check_connected(s, spec):
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
        "zero_ideal_in_points": any(p.mask == 1 for p in spec.points),
    }


def check_disconnection(s, spec):
    """The strong disconnection witness, and the idempotent extracted from
    it with the extraction's status: ``ok``, ``no-witness``,
    ``hypothesis:<name>`` for an unmet hypothesis, or
    ``mechanism-failure:<reason>``."""
    witness = strong_disconnection_witness(s, spec)
    if witness is None:
        return {
            "disconnection_witness": None,
            "idempotent": None,
            "idempotent_status": "no-witness",
        }
    idempotent = None
    try:
        idempotent = idempotent_from_disconnection(s, spec, witness)
        status = "ok"
    except HypothesisUnmet as exc:
        status = f"hypothesis:{exc.hypothesis}"
    except NoUnitDecomposition as exc:
        status = f"mechanism-failure:{exc}"
    left, right = witness
    return {
        "disconnection_witness": {
            "left": [list(a.members) for a in left],
            "right": [list(b.members) for b in right],
        },
        "idempotent": idempotent,
        "idempotent_status": status,
    }


def check_irreducible_upsets(s, spec):
    """Each point's up-set must be the closure of the point, computed from
    its definition: the intersection of every subbasic closed set that
    contains the point.  The closure of a point is irreducible, so each
    point's up-set is then an irreducible closed set."""
    subbasic = spec.subbasis.values()
    return {
        "irreducible_upsets": all(
            reduce(and_, (u for u in subbasic if (u >> i) & 1), spec.full)
            == spec.subbasis[p.mask]
            for i, p in enumerate(spec.points)
        )
    }


def strong_disconnection_witness(s, spec):
    """Two nonempty families of subbasic closed sets whose unions partition
    the space, or None.

    Every up-set is a union of subbasic sets, so the sides are the lowest
    component and its complement.  Each side is returned as a list of
    ideals (the lowest-mask ideal per distinct up-set); a side collapses
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
            return [ideal_from_mask(s, lowest_ideal_for[mask])]
        return [
            ideal_from_mask(s, m)
            for u, m in sorted(lowest_ideal_for.items())
            if (u & mask) == u
        ]

    return side(comps[0]), side(spec.full ^ comps[0])


def idempotent_from_disconnection(s, spec, witness):
    """Extract a nontrivial idempotent from a strong disconnection.

    Requires the witness, the spectrum to contain every maximal ideal,
    and a zero Jacobson radical.  Reduces the witness families to a
    single ideal per side by taking ideal products, decomposes 1 = u + v
    across the two sides, and returns the verified idempotent u.
    """
    if witness is None:
        raise HypothesisUnmet("witness", "no strong disconnection witness")
    left, right = witness
    if not left or not right:
        raise HypothesisUnmet("witness", "a side of the witness is empty")
    if not all(
        a.semiring == s.id and is_ideal_mask(s, a.mask) for a in [*left, *right]
    ):
        raise HypothesisUnmet("witness", "a side holds a non-ideal of the semiring")
    up = spec.subbasis
    left_union = 0
    for a in left:
        left_union |= up[a.mask]
    right_union = 0
    for b in right:
        right_union |= up[b.mask]
    if (
        left_union == 0
        or right_union == 0
        or (left_union & right_union) != 0
        or (left_union | right_union) != spec.full
    ):
        raise HypothesisUnmet("witness", "sides do not partition the spectrum")
    point_mask_set = set(spec.point_masks())
    if not all(m in point_mask_set for m in maximal_ideal_masks(s)):
        raise HypothesisUnmet(
            "maximal-containment", "spectrum misses a maximal ideal"
        )
    if jacobson_radical(s).mask != 1:
        raise HypothesisUnmet("jacobson", "Jacobson radical is not zero")

    algebra = ideal_algebra(s)
    products = algebra.products
    x = left[0].mask
    for a in left[1:]:
        x = products[x][a.mask]
    y = right[0].mask
    for b in right[1:]:
        y = products[y][b.mask]
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


def verify_upset_laws(s, spec):
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
    up = spec.subbasis
    law = _first_failing_upset_law(s, spec)
    principals = ideal_algebra(s).principals
    generator_witness = None
    for ideal, classification in classified_ideals(s):
        pulled = spec.full
        for g in classification.witness_dict()["generators"]:
            pulled &= up[principals[g]]
        if up[ideal.mask] != pulled:
            generator_witness = list(ideal.members)
            break
    return {
        "upset_laws": "pass" if law is None else {"holds": False, **law},
        "generator_upset_identity": generator_witness is None,
        "generator_upset_witness": generator_witness,
    }


def _first_failing_upset_law(s, spec):
    """The first up-set law of ``verify_upset_laws`` that fails, as
    ``{"law", "witness"}``, or None."""
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

    all_points_radical = all(radicals[p.mask] == p.mask for p in spec.points)
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
