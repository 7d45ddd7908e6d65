"""Homomorphisms between finite semirings and the maps they induce on spectra.

A homomorphism s -> t is its image tuple (``hom[a]`` is the image of
element a), and ideals are masks, as everywhere in the package.  A
homomorphism pulls ideals of t back to ideals of s.  When the
spectrum class is stable under preimage (the contraction property), this
gives a continuous map from the spectrum of t into the spectrum of s.
``induced_map`` derives that map in one pass: it raises ContractionFails
with the first point whose preimage is not a point, and otherwise
returns the map with its continuity verdict and the kernel.  The checks
below read the map to verify the closed-subspace embedding for
surjections and the density criterion; like the topology checks, each
returns exactly the report fields it decides, under their report names.
"""

from dataclasses import dataclass

from .errors import ContractionFails, SizeLimitExceeded
from .ideals import _close, ideal_algebra, is_ideal_mask, mask_members
from .semiring import _homomorphism_violation
from .topology import spectrum

HOM_SEARCH_CAP = 10_000_000


def enumerate_homomorphisms(s, t):
    """The image tuple of every map preserving +, *, 0 and 1, in
    lexicographic order."""
    if t.n ** s.n > HOM_SEARCH_CAP:
        raise SizeLimitExceeded(
            f"{t.n}^{s.n} candidate maps exceeds the search cap"
        )
    image = [-1] * s.n
    image[0] = 0
    if s.one == 0:
        if t.one != 0:
            return []
    else:
        image[s.one] = t.one
    free = [x for x in range(s.n) if image[x] == -1]
    found = []

    def consistent(x):
        for y in range(s.n):
            if image[y] == -1:
                continue
            for table, ttable in ((s.add, t.add), (s.mul, t.mul)):
                z = table[x][y]
                if image[z] != -1 and image[z] != ttable[image[x]][image[y]]:
                    return False
        return True

    def dfs(pos):
        if pos == len(free):
            if _homomorphism_violation(s, t, image) is None:
                found.append(tuple(image))
            return
        x = free[pos]
        for v in range(t.n):
            image[x] = v
            if consistent(x):
                dfs(pos + 1)
            image[x] = -1

    dfs(0)
    return found


def contract_ideal(s, t, hom, ideal_of_t):
    """Preimage of an ideal mask of t; always an ideal of s."""
    mask = 0
    for a in range(s.n):
        if (ideal_of_t >> hom[a]) & 1:
            mask |= 1 << a
    assert is_ideal_mask(s, mask), "contraction failed the ideal axioms"
    return mask


def kernel(s, t, hom):
    """Preimage of the zero ideal of t; an ideal of s, improper only for a
    zero-collapse."""
    return contract_ideal(s, t, hom, 1)


def extend_ideal(s, t, hom, ideal_of_s):
    """Ideal of t generated by the image of an ideal mask of s; may be
    improper."""
    image = 0
    for a in range(s.n):
        if (ideal_of_s >> a) & 1:
            image |= 1 << hom[a]
    return _close(t, image)


@dataclass(frozen=True)
class InducedMap:
    """The spectrum map induced by a homomorphism s -> t, acting by
    preimage, for the class named ``cls``.

    ``spec_s`` is the space over s and ``spec_t`` the space over t;
    ``map[j]`` is the index in ``spec_s`` of the preimage of point j of
    ``spec_t``.  ``kernel`` is the mask of the homomorphism's kernel, an
    ideal of s.
    ``continuity_witness`` is None when the preimage of every subbasic
    closed set is the up-set of the extended ideal, hence closed;
    otherwise it is the first ideal of the homomorphism's source for
    which it is not.
    """

    hom: tuple
    cls: str
    spec_s: object
    spec_t: object
    map: tuple
    kernel: int
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

    Each point of the spectrum of t maps to its preimage.  When the class
    is not stable under preimage (the contraction property fails), raises
    ContractionFails with the witness ``{"point", "preimage"}`` of the
    first point of t whose preimage is not a point.  Continuity is
    returned as a verdict on the map (``continuous``,
    ``continuity_witness``): the preimage of the up-set of each ideal a of
    s must be the up-set of the ideal of t generated by the image of a.
    Both up-sets are read from the spectra's subbases.
    """
    spec_s = spectrum(s, cls)
    spec_t = spectrum(t, cls)
    index_of = {m: i for i, m in enumerate(spec_s.points)}
    point_map = []
    for p in spec_t.points:
        back = contract_ideal(s, t, hom, p)
        if back not in index_of:
            raise ContractionFails(
                cls,
                {"point": mask_members(t, p), "preimage": mask_members(s, back)},
            )
        point_map.append(index_of[back])
    up_t = spec_t.subbasis
    witness = None
    for m, target_up in spec_s.subbasis.items():
        pulled = 0
        for j, i in enumerate(point_map):
            if (target_up >> i) & 1:
                pulled |= 1 << j
        if pulled != up_t[extend_ideal(s, t, hom, m)]:
            witness = {"ideal": mask_members(s, m)}
            break
    return InducedMap(
        hom=hom,
        cls=cls,
        spec_s=spec_s,
        spec_t=spec_t,
        map=tuple(point_map),
        kernel=kernel(s, t, hom),
        continuity_witness=witness,
    )


def check_quotient_homeomorphism(ind):
    """Is the map induced by a homomorphism s -> t a homeomorphism of the
    spectrum of t onto the up-set of the kernel?  Decided only for a
    surjection; otherwise ``homeomorphism_onto_kernel_upset`` is "n/a".
    The map carries both spaces, and each space its semiring.

    Reports the image/kernel-up-set comparison and the subspace
    homeomorphism onto the actual image separately, so a gap between the
    image and the kernel up-set is visible as data.

    Both spaces are Alexandrov, so a continuous injective map is a
    homeomorphism onto its image exactly when it is an embedding of the
    inclusion orders.  For a surjection f, f(f^-1(q)) = q for every ideal
    q of t, so that conjunct follows from correct preimages:
    ``homeomorphism_onto_image`` checks the preimage and continuity code,
    not a separate theorem instance.
    """
    if len(set(ind.hom)) != ind.spec_t.semiring.n:
        return {"surjective": False, "homeomorphism_onto_kernel_upset": "n/a"}
    ker_up = ind.spec_s.subbasis[ind.kernel]
    image = ind.image_point_set()

    q, p = ind.spec_t.points, ind.spec_s.points
    onto_image = (
        ind.continuous
        and len(set(ind.map)) == len(ind.map)
        and all(
            ((q[i] & q[j]) == q[i]) == ((p[a] & p[b]) == p[a])
            for i, a in enumerate(ind.map)
            for j, b in enumerate(ind.map)
        )
    )

    return {
        "surjective": True,
        "image_equals_kernel_upset": image == ker_up,
        "homeomorphism_onto_image": onto_image,
        "homeomorphism_onto_kernel_upset": onto_image and image == ker_up,
    }


def check_density(ind):
    """Density of the induced image versus the kernel-inclusion criterion.

    dense: the closure of the image of the induced map is the whole
    spectrum of s.  density_rhs: the kernel is contained in the
    intersection of all spectrum points.  The report also carries the
    closure-of-image identity (closure equals the kernel up-set) and,
    for the prime class, whether the radical-equality form of the
    criterion (the kernel's radical is that intersection) matches density.
    """
    s = ind.spec_s.semiring
    ker = ind.kernel
    cl_image = ind.spec_s.closure(ind.image_point_set())
    dense = cl_image == ind.spec_s.full

    inter = s.full_mask
    for p in ind.spec_s.points:
        inter &= p
    criterion = (ker & inter) == ker

    report = {
        "dense": dense,
        "density_rhs": criterion,
        "density_biconditional": dense == criterion,
        "closure_image_equals_kernel_upset": cl_image == ind.spec_s.subbasis[ker],
    }
    if ind.cls == "prime":
        report["radical_equality_matches_density"] = (
            ideal_algebra(s).radicals[ker] == inter
        ) == dense
    return report
