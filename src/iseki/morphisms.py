"""Homomorphisms between finite semirings and the maps they induce on spectra.

A homomorphism s -> t pulls ideals of t back to ideals of s.  When the
spectrum class is stable under preimage (the contraction property), this
gives a continuous map from the spectrum of t into the spectrum of s;
the checks below verify continuity, the closed-subspace embedding for
surjections, and the density criterion, reporting witnesses instead of
silently dropping points when a hypothesis fails.
"""

from dataclasses import dataclass

from .errors import ContractionFails, NotSurjective, SizeLimitExceeded
from .ideals import (
    _ideal_masks_all,
    generated_ideal,
    ideal_from_mask,
    is_ideal_mask,
    radical,
)
from .semiring import Homomorphism, validate_homomorphism
from .topology import closed_family, parse_class, spectrum, up_set

HOM_SEARCH_CAP = 10_000_000


def enumerate_homomorphisms(s, t):
    """All maps preserving +, *, 0 and 1, in lexicographic map order."""
    if t.n ** s.n > HOM_SEARCH_CAP:
        raise SizeLimitExceeded(
            f"{t.n}^{s.n} candidate maps exceeds the search cap"
        )
    image = [-1] * s.n
    image[0] = 0
    if s.one == 0:
        if t.one != 0:
            return []
    elif image[s.one] == -1:
        image[s.one] = t.one
    elif image[s.one] != t.one:
        return []
    free = [x for x in range(s.n) if image[x] == -1]
    found = []

    def consistent(x):
        for y in range(s.n):
            if image[y] == -1:
                continue
            for table, ttable in ((s.add, t.add), (s.mul, t.mul)):
                z = int(table[x, y])
                if image[z] != -1 and image[z] != int(ttable[image[x], image[y]]):
                    return False
        return True

    def dfs(pos):
        if pos == len(free):
            if validate_homomorphism(s, t, image, check_only=True):
                found.append(Homomorphism(s.id, t.id, tuple(image)))
            return
        x = free[pos]
        for v in range(t.n):
            image[x] = v
            if consistent(x):
                dfs(pos + 1)
            image[x] = -1

    dfs(0)
    return found


def kernel(s, t, hom):
    """Preimage of {0}; an ideal of s, improper only for a zero-collapse."""
    mask = 0
    for a in range(s.n):
        if hom.map[a] == 0:
            mask |= 1 << a
    assert is_ideal_mask(s, mask), "kernel failed the ideal axioms"
    return ideal_from_mask(s, mask)


def contract_ideal(s, t, hom, ideal_of_t):
    """Preimage of an ideal of t; always an ideal of s."""
    mask = 0
    for a in range(s.n):
        if (ideal_of_t.mask >> hom.map[a]) & 1:
            mask |= 1 << a
    assert is_ideal_mask(s, mask), "contraction failed the ideal axioms"
    return ideal_from_mask(s, mask)


def extend_ideal(s, t, hom, ideal_of_s):
    """Ideal of t generated by the image; may be improper."""
    return generated_ideal(t, {hom.map[a] for a in ideal_of_s.members})


def compose(s, t, u, first, second):
    """The composite homomorphism s -> u of first: s -> t and second: t -> u.

    No sweep path calls it: ``tests/test_morphisms.py::
    test_functoriality_of_induced_maps`` uses it to check functoriality.
    """
    return validate_homomorphism(
        s, u, tuple(second.map[first.map[a]] for a in range(s.n))
    )


def check_contraction(s, t, hom, cls):
    """Whether every spectrum point of t pulls back into the spectrum of s.

    When it does, ``map[j]`` is the index in the spectrum of s of the
    preimage of point j of t; otherwise the witness is the first point of
    t whose preimage is not a point.
    """
    if isinstance(cls, str):
        cls = parse_class(cls)
    index_of = {m: i for i, m in enumerate(spectrum(s, cls).point_masks())}
    point_map, witness = [], None
    for p in spectrum(t, cls).points:
        back = contract_ideal(s, t, hom, p)
        if back.mask not in index_of:
            witness = {"point": list(p.members), "preimage": list(back.members)}
            break
        point_map.append(index_of[back.mask])
    holds = witness is None
    return {
        "class": cls.display(),
        "holds": holds,
        "witness": witness,
        "map": tuple(point_map) if holds else None,
    }


@dataclass(frozen=True)
class InducedMap:
    """The spectrum map induced by a homomorphism, acting by preimage.

    ``source_spectrum`` lives over the homomorphism's target semiring and
    ``target_spectrum`` over its source; ``map[j]`` is the index in the
    target spectrum of the preimage of source point j.
    ``continuity_witness`` is None when the preimage of every subbasic
    closed set is the up-set of the extended ideal, hence closed;
    otherwise it is the first ideal of the homomorphism's source for
    which it is not.
    """

    hom: Homomorphism
    source_spectrum: object
    target_spectrum: object
    map: tuple
    continuity_witness: object

    @property
    def continuous(self):
        return self.continuity_witness is None

    def image_point_set(self):
        out = 0
        for i in self.map:
            out |= 1 << i
        return out


def induced_map(s, t, hom, cls):
    """Build the induced spectrum map and verify its continuity.

    Raises ContractionFails, carrying the contraction witness, when the
    class is not stable under preimage.  Continuity is returned as a
    verdict on the map (``continuous``, ``continuity_witness``): the
    preimage of the up-set of each ideal a of s must be the up-set of the
    ideal of t generated by the image of a.
    """
    if isinstance(cls, str):
        cls = parse_class(cls)
    verdict = check_contraction(s, t, hom, cls)
    if not verdict["holds"]:
        raise ContractionFails(cls.display(), verdict["witness"])
    spec_s = spectrum(s, cls)
    spec_t = spectrum(t, cls)
    point_map = verdict["map"]
    witness = None
    for m in _ideal_masks_all(s):
        target_up = up_set(spec_s, m)
        pulled = 0
        for j in range(spec_t.size):
            if (target_up >> point_map[j]) & 1:
                pulled |= 1 << j
        ideal = ideal_from_mask(s, m)
        if pulled != up_set(spec_t, extend_ideal(s, t, hom, ideal).mask):
            witness = {"ideal": list(ideal.members)}
            break
    return InducedMap(
        hom=hom,
        source_spectrum=spec_t,
        target_spectrum=spec_s,
        map=point_map,
        continuity_witness=witness,
    )


def check_quotient_homeomorphism(s, t, ind):
    """For the map induced by a surjective homomorphism s -> t: is it a
    homeomorphism of the spectrum of t onto the up-set of the kernel?

    Reports the injectivity, the image/kernel-up-set comparison, and the
    subspace homeomorphism onto the actual image separately, so a gap
    between the image and the kernel up-set is visible as data.

    Both spaces are Alexandrov, so a continuous injective map is a
    homeomorphism onto its image exactly when it is an embedding of the
    inclusion orders.  For a surjection f, f(f^-1(q)) = q for every ideal
    q of t, so that conjunct follows from correct preimages:
    ``homeomorphism_onto_image`` checks the preimage and continuity code,
    not a separate theorem instance.
    """
    hom = ind.hom
    if not hom.is_surjective_onto(t.n):
        raise NotSurjective(f"map {hom.map} does not cover {t.id}")
    spec_s, spec_t = ind.target_spectrum, ind.source_spectrum
    ker = kernel(s, t, hom)
    ker_up = up_set(spec_s, ker.mask)
    image = ind.image_point_set()
    injective = len(set(ind.map)) == len(ind.map)

    q, p = spec_t.point_masks(), spec_s.point_masks()
    onto_image = (
        ind.continuous
        and injective
        and all(
            ((q[i] & q[j]) == q[i]) == ((p[a] & p[b]) == p[a])
            for i, a in enumerate(ind.map)
            for j, b in enumerate(ind.map)
        )
    )

    return {
        "class": spec_s.class_tag,
        "contraction": True,
        "injective": injective,
        "kernel": list(ker.members),
        "kernel_proper": ker.is_proper,
        "image_equals_kernel_upset": image == ker_up,
        "homeomorphism_onto_image": onto_image,
        "homeomorphism_onto_kernel_upset": onto_image and image == ker_up,
    }


def check_density(s, t, ind):
    """Density of the induced image versus the kernel-inclusion criterion.

    dense: the closure of the image of the induced map is the whole
    spectrum of s.  criterion: the kernel is contained in the
    intersection of all spectrum points.  The report also carries the
    closure-of-image identity (closure equals the kernel up-set) and,
    for the prime class, the radical-equality form of the criterion.
    """
    spec_s = ind.target_spectrum
    fam_s = closed_family(s, spec_s)
    ker = kernel(s, t, ind.hom)
    image = ind.image_point_set()
    cl_image = fam_s.closure(image)
    dense = cl_image == spec_s.full_point_set

    inter = s.full_mask
    for p in spec_s.points:
        inter &= p.mask
    criterion = (ker.mask & inter) == ker.mask

    report = {
        "class": spec_s.class_tag,
        "dense": dense,
        "density_rhs": criterion,
        "biconditional": dense == criterion,
        "closure_image_equals_kernel_upset": cl_image
        == up_set(spec_s, ker.mask),
    }
    if spec_s.class_tag == "prime":
        report["radical_equality"] = radical(s, ker).mask == inter
        report["radical_equality_matches_density"] = (
            report["radical_equality"] == dense
        )
    return report
