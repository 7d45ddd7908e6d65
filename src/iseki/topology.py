"""Spectra of distinguished ideal classes and their coarse lower topology.

A spectrum is the ordered set of proper ideals of one semiring satisfying
a class predicate (prime, maximal, radical, ...).  Its Iseki space is the
topology whose closed sets are generated, as a closed subbasis, by the
up-sets

    up(a) = { x in points | a is a subset of x }

with a running over all ideals.  Every point is itself an ideal, so
up(point) is the smallest closed set containing the point and the space
is Alexandrov: its closed sets are exactly the point sets that are
up-closed under inclusion.  Point sets are bitmasks over point indices,
and every separation/connectedness property is decided exactly from the
inclusion order, with witnesses for every negative verdict.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import HypothesisUnmet, NoUnitDecomposition, ParseError
from .ideals import (
    Ideal,
    _ideal_masks_all,
    classified_ideals,
    ideal_algebra,
    ideal_from_mask,
    is_ideal_mask,
    jacobson_radical,
    mask_members,
    maximal_ideal_masks,
)

CLASS_TAGS = (
    "proper",
    "prime",
    "maximal",
    "primary",
    "irreducible",
    "strongly-irreducible",
    "radical",
    "principal",
)
# The ideal families of the sum identity (quasi-compactness and up-set
# law 3) have at most this many members.
FAMILY_SIZE_CAP = 3


@dataclass(frozen=True)
class SpectrumClass:
    """A decidable, deterministic predicate selecting proper ideals.

    Built-in tags are listed in CLASS_TAGS; ``fg`` takes the generator
    bound ``k``; ``custom`` carries a user predicate of signature
    ``(semiring, ideal, classification) -> bool`` which must be
    deterministic.
    """

    tag: str
    k: int = -1
    name: str = ""
    predicate: object = None

    def display(self):
        if self.tag == "fg":
            return f"fg({self.k})"
        if self.tag == "custom":
            return self.name or "custom"
        return self.tag

    def accepts(self, s, ideal, classification):
        tag = self.tag
        if tag == "proper":
            return True
        if tag == "prime":
            return classification.prime
        if tag == "maximal":
            return classification.maximal
        if tag == "primary":
            return classification.primary
        if tag == "irreducible":
            return classification.irreducible
        if tag == "strongly-irreducible":
            return classification.strongly_irreducible
        if tag == "radical":
            return classification.radical_ideal
        if tag == "principal":
            return classification.principal
        if tag == "fg":
            return classification.min_generators <= self.k
        if tag == "custom":
            return bool(self.predicate(s, ideal, classification))
        raise ValueError(f"unknown spectrum class tag {tag!r}")


def parse_class(text):
    """Parse a class tag like 'prime' or 'fg(2)' / 'fg:2'."""
    text = text.strip()
    if text in CLASS_TAGS:
        return SpectrumClass(tag=text)
    for open_, close in (("(", ")"), (":", "")):
        if text.startswith("fg" + open_) and text.endswith(close):
            body = text[3:-1] if open_ == "(" else text[3:]
            try:
                return SpectrumClass(tag="fg", k=int(body))
            except ValueError:
                break
    raise ParseError(f"unknown spectrum class {text!r}")


@dataclass(frozen=True)
class Spectrum:
    semiring: str
    class_tag: str
    points: tuple

    @property
    def size(self):
        return len(self.points)

    @property
    def full_point_set(self):
        return (1 << len(self.points)) - 1

    def point_masks(self):
        return tuple(p.mask for p in self.points)

    def to_json(self):
        return {
            "semiring": self.semiring,
            "class": self.class_tag,
            "points": [list(p.members) for p in self.points],
        }


def spectrum(s, cls):
    """Points of the class, ascending by ideal bitset; the whole semiring
    is never a point."""
    if isinstance(cls, str):
        cls = parse_class(cls)
    points = tuple(
        ideal
        for ideal, classification in classified_ideals(s)
        if cls.accepts(s, ideal, classification)
    )
    return Spectrum(semiring=s.id, class_tag=cls.display(), points=points)


def up_set(spec, ideal):
    """Point-set bitmask of the points containing the given ideal.

    Accepts an Ideal or a raw element bitmask; improper ideals give the
    empty set since no proper point can contain them.
    """
    mask = ideal.mask if isinstance(ideal, Ideal) else int(ideal)
    out = 0
    for i, p in enumerate(spec.points):
        if (p.mask & mask) == mask:
            out |= 1 << i
    return out


class ClosedFamily:
    """The closed sets of one Iseki space, decided from the inclusion order.

    ``subbasis`` maps each ideal mask of the semiring to its up-set;
    ``up[i]`` is the up-set of point i, which is both the closure of the
    point and its principal up-set.  A point set is closed exactly when
    it is up-closed, so its closure is the union of its points' up-sets.
    """

    def __init__(self, spec, subbasis):
        self.spectrum = spec
        self.subbasis = subbasis
        self.up = tuple(subbasis[p.mask] for p in spec.points)
        self.full = spec.full_point_set

    def is_closed(self, point_set):
        return self.closure(point_set) == point_set

    def closure(self, point_set):
        out = 0
        for i, u in enumerate(self.up):
            if (point_set >> i) & 1:
                out |= u
        return out

    def point_closure(self, index):
        return self.closure(1 << index)

    def irreducible_closed_sets(self):
        """Nonempty closed sets that are not unions of two proper closed
        subsets: in an Alexandrov space, the principal up-sets."""
        return tuple(sorted(set(self.up)))

    def components(self):
        """Connected components, ascending: the classes of points linked by
        a chain of overlapping up-sets (the comparability graph)."""
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


@lru_cache(maxsize=None)
def _closed_family_cached(s, spec):
    return ClosedFamily(spec, {m: up_set(spec, m) for m in _ideal_masks_all(s)})


def closed_family(s, spec):
    """Build (or fetch) the closed family of a spectrum."""
    return _closed_family_cached(s, spec)


def closure(s, spec, point_set):
    """Smallest closed superset of a point-set."""
    return closed_family(s, spec).closure(point_set)


def point_set_members(spec, point_set):
    return [list(spec.points[i].members) for i in range(spec.size) if (point_set >> i) & 1]


# ---------------------------------------------------------------------------
# Separation / compactness / connectedness checks; every report is a plain
# dict ready for JSON and every negative verdict carries a witness.
# ---------------------------------------------------------------------------

def check_t0(s, spec):
    fam = closed_family(s, spec)
    closures = [fam.point_closure(i) for i in range(spec.size)]
    for i in range(spec.size):
        for j in range(i + 1, spec.size):
            if closures[i] == closures[j]:
                return {
                    "holds": False,
                    "witness": [
                        list(spec.points[i].members),
                        list(spec.points[j].members),
                    ],
                }
    return {"holds": True, "witness": None}


def check_t1(s, spec):
    """Singleton-closure T1 test plus the all-maximal-ideals predicate.

    The two booleans must agree for every built-in class; both are
    reported so disagreements are visible rather than asserted away.
    """
    fam = closed_family(s, spec)
    t1 = True
    witness = None
    for i in range(spec.size):
        if fam.point_closure(i) != (1 << i):
            t1 = False
            witness = list(spec.points[i].members)
            break
    maximal_set = set(maximal_ideal_masks(s))
    predicate = set(spec.point_masks()) == maximal_set
    return {
        "t1": t1,
        "t1_predicate": predicate,
        "agree": t1 == predicate,
        "witness": witness,
        "degenerate": spec.size == 0,
    }


def check_sober(s, spec):
    """Direct sobriety versus the generic-point criterion.

    Direct: every nonempty irreducible closed set is the closure of
    exactly one point.  Criterion: whenever an ideal has a nonempty
    irreducible up-set, the intersection of all points containing the
    ideal is itself a point.  The theorem says the two agree.
    """
    fam = closed_family(s, spec)
    sober = True
    witness = None
    for k in fam.irreducible_closed_sets():
        generics = [i for i in range(spec.size) if fam.point_closure(i) == k]
        if len(generics) != 1:
            sober = False
            witness = point_set_members(spec, k)
            break

    criterion = True
    criterion_witness = None
    irr = set(fam.irreducible_closed_sets())
    point_mask_set = set(spec.point_masks())
    for m in _ideal_masks_all(s):
        u = fam.subbasis[m]
        if u == 0 or u not in irr:
            continue
        inter = s.full_mask
        for i in range(spec.size):
            if (u >> i) & 1:
                inter &= spec.points[i].mask
        if inter not in point_mask_set:
            criterion = False
            criterion_witness = mask_members(s, m)
            break

    return {
        "sober": sober,
        "criterion": criterion,
        "agree": sober == criterion,
        "witness": witness,
        "criterion_witness": criterion_witness,
    }


def check_quasi_compact(s, spec):
    """Finite spaces are quasi-compact; the value is the proof mechanism.

    For every ideal family of at most ``FAMILY_SIZE_CAP`` members, the
    intersection of the up-sets must equal the up-set of the ideal sum;
    and when the spectrum contains every maximal ideal, an empty up-set
    intersection forces the sum to be improper.
    """
    fam = closed_family(s, spec)
    algebra = ideal_algebra(s)
    maximals_present = all(
        m in set(spec.point_masks()) for m in maximal_ideal_masks(s)
    )
    identity_ok = True
    maximal_ok = True
    witness = None
    empty_families = 0
    for size in range(1, FAMILY_SIZE_CAP + 1):
        sums = algebra.family_sums(size)
        for family, total in zip(combinations(algebra.masks, size), sums):
            inter = fam.full
            for a in family:
                inter &= fam.subbasis[a]
            if fam.subbasis[total] != inter:
                identity_ok = False
                witness = [mask_members(s, a) for a in family]
            if inter == 0:
                empty_families += 1
                if maximals_present and total != s.full_mask:
                    maximal_ok = False
                    witness = [mask_members(s, a) for a in family]
        if not (identity_ok and maximal_ok):
            break
    return {
        "quasi_compact": True,
        "sum_identity": identity_ok,
        "maximals_in_spectrum": maximals_present,
        "empty_intersection_families": empty_families,
        "empty_intersection_implies_improper_sum": maximal_ok,
        "witness": witness,
    }


def check_fg_spectrum_maximals(s, k):
    """Presence of each maximal ideal in the k-generated spectrum.

    In a finite semiring every ideal is finitely generated, so this
    reports the generator count of each maximal ideal against ``k``
    rather than asserting a theorem.
    """
    spec = spectrum(s, SpectrumClass(tag="fg", k=k))
    rows = []
    all_present = True
    by_mask = {ideal.mask: c for ideal, c in classified_ideals(s)}
    for m in maximal_ideal_masks(s):
        gens = by_mask[m].min_generators
        present = gens <= k
        all_present = all_present and present
        rows.append(
            {
                "maximal": mask_members(s, m),
                "min_generators": gens,
                "present": present,
            }
        )
    return {
        "k": k,
        "quasi_compact": True,
        "all_maximals_present": all_present,
        "maximals": rows,
        "degenerate": spec.size == 0,
    }


def check_connected(s, spec):
    """Connectivity from the connected components; the witness is the
    lowest clopen set, the lowest component.  Empty spectra are degenerate."""
    if spec.size == 0:
        return {
            "connected": "degenerate",
            "witness": None,
            "zero_ideal_in_points": False,
        }
    comps = closed_family(s, spec).components()
    witness = point_set_members(spec, comps[0]) if len(comps) > 1 else None
    return {
        "connected": witness is None,
        "witness": witness,
        "zero_ideal_in_points": any(p.mask == 1 for p in spec.points),
    }


def check_irreducible_upsets(s, spec):
    """Each point's up-set must equal the closure of the point and be irreducible."""
    fam = closed_family(s, spec)
    irr = set(fam.irreducible_closed_sets())
    for i, p in enumerate(spec.points):
        u = fam.subbasis[p.mask]
        if fam.point_closure(i) != u or u not in irr:
            return {"holds": False, "witness": list(p.members)}
    return {"holds": True, "witness": None}


def strong_disconnection_witness(s, spec):
    """Two nonempty families of subbasic closed sets whose unions partition
    the space, or None.

    Every up-set is a union of subbasic sets, so the sides are the lowest
    component and its complement.  Each side is returned as a list of
    ideals (the lowest-mask ideal per distinct up-set); a side collapses
    to a single ideal whenever the side's union is itself an up-set.
    """
    fam = closed_family(s, spec)
    comps = fam.components()
    if len(comps) < 2:
        return None
    lowest_ideal_for = {}
    for m in sorted(fam.subbasis):
        u = fam.subbasis[m]
        if u and u not in lowest_ideal_for:
            lowest_ideal_for[u] = m

    def side(mask):
        if mask in lowest_ideal_for:
            return [ideal_from_mask(s, lowest_ideal_for[mask])]
        return [
            ideal_from_mask(s, m)
            for u, m in sorted(lowest_ideal_for.items())
            if (u & mask) == u
        ]

    return side(comps[0]), side(fam.full ^ comps[0])


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
    left_union = 0
    for a in left:
        left_union |= up_set(spec, a)
    right_union = 0
    for b in right:
        right_union |= up_set(spec, b)
    if (
        left_union == 0
        or right_union == 0
        or (left_union & right_union) != 0
        or (left_union | right_union) != spec.full_point_set
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
            if int(s.add[u, v]) == s.one:
                if int(s.mul[u, u]) != u or u == 0 or u == s.one:
                    raise NoUnitDecomposition(
                        f"decomposition 1 = {u} + {v} fails idempotence"
                    )
                return u
    raise NoUnitDecomposition("no decomposition of 1 across the two sides")


def verify_upset_laws(s, spec):
    """Exhaustively verify the order/lattice laws of the up-set map.

    Laws: (1) antitone, with the zero ideal mapping to the full space and
    the whole semiring to the empty set; (2) up(a) | up(b) inside
    up(a&b) inside up(ab); (3) intersections of up-sets equal the up-set
    of the ideal sum, for families of at most ``FAMILY_SIZE_CAP``; (4)
    up(a) contains up(radical(a)); (5) every point is a radical ideal if
    and only if up(a) = up(radical(a)) for every ideal a.
    """
    fam = closed_family(s, spec)
    algebra = ideal_algebra(s)
    masks = algebra.masks
    up = fam.subbasis

    zero_up = up.get(1, up_set(spec, 1))
    if zero_up != fam.full:
        return {"holds": False, "law": "zero-full", "witness": None}
    if up.get(s.full_mask, 0) != 0 and s.n > 1:
        return {"holds": False, "law": "improper-empty", "witness": None}

    for a in masks:
        for b in masks:
            if (a & b) == a and (up[a] & up[b]) != up[b]:
                return {
                    "holds": False,
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
                    "holds": False,
                    "law": "union-inside-intersection",
                    "witness": [mask_members(s, a), mask_members(s, b)],
                }
            if (inter_up & up[products[b]]) != inter_up:
                return {
                    "holds": False,
                    "law": "intersection-inside-product",
                    "witness": [mask_members(s, a), mask_members(s, b)],
                }

    for size in range(1, FAMILY_SIZE_CAP + 1):
        sums = algebra.family_sums(size)
        for family, total in zip(combinations(masks, size), sums):
            inter = fam.full
            for a in family:
                inter &= up[a]
            if up[total] != inter:
                return {
                    "holds": False,
                    "law": "sum-identity",
                    "witness": [mask_members(s, a) for a in family],
                }

    radicals = algebra.radicals
    for a in masks:
        r = radicals[a]
        if (up[r] & up[a]) != up[r]:
            return {
                "holds": False,
                "law": "radical-up-shrinks",
                "witness": mask_members(s, a),
            }

    all_points_radical = all(radicals[p.mask] == p.mask for p in spec.points)
    ups_stable = all(up[radicals[a]] == up[a] for a in masks)
    if all_points_radical != ups_stable:
        return {
            "holds": False,
            "law": "radical-spectrum-equivalence",
            "witness": {
                "all_points_radical": all_points_radical,
                "upsets_radical_stable": ups_stable,
            },
        }

    return {"holds": True, "law": None, "witness": None}
