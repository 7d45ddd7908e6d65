"""Homomorphisms between finite semirings and the maps they induce on spectra.

A homomorphism s -> t is its image tuple (``hom[a]`` is the image of
element a), and ideals are masks, as everywhere in the package.  A
homomorphism pulls ideals of t back to ideals of s.  When the
spectrum class is stable under preimage (the contraction property), this
gives a continuous map from the spectrum of t into the spectrum of s.
``induced_map`` derives that map in one pass: it raises ContractionFails
with the first point whose preimage is not a point, and otherwise
returns the map with its continuity witness and the kernel.  The checks
below read the map to compare a surjection's image with the up-set of
its kernel and to decide the density criterion; like the topology
checks, each returns exactly the report fields it decides, under their
report names, each verdict a counterexample or None.
"""

from .errors import ContractionFails, SizeLimitExceeded
from .ideals import ideal_algebra, is_ideal_mask, mask_members
from .semiring import _homomorphism_violation
from .topology import first_point, spectrum

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
    if not is_ideal_mask(s, mask):
        raise AssertionError("contraction failed the ideal axioms")
    return mask


def kernel(s, t, hom):
    """Preimage of the zero ideal of t; an ideal of s, improper only for a
    zero-collapse."""
    return contract_ideal(s, t, hom, 1)


class InducedMap:
    """The spectrum map induced by a homomorphism s -> t, acting by
    preimage.

    ``spec_s`` is the space over s and ``spec_t`` the space over t;
    ``map[j]`` is the index in ``spec_s`` of the preimage of point j of
    ``spec_t``, and ``image`` the point set of those indices, made once.
    ``kernel`` is the mask of the homomorphism's kernel, an ideal of s.
    ``continuity_witness`` is None when the preimage of the up-set of
    every principal ideal Rg of s is the up-set of the principal ideal
    of its image, hence closed; otherwise it is ``{"ideal": Rg}`` for
    the first element g of s for which it is not.  ``_pull`` takes
    preimages of point sets under ``map``.  A plain record that nothing
    caches or hashes, so no field is read-only.
    """

    __slots__ = ("hom", "spec_s", "spec_t", "map", "image", "kernel", "continuity_witness")

    def __init__(self, hom, spec_s, spec_t, map, kernel, continuity_witness):
        self.hom, self.map, self.kernel = hom, map, kernel
        self.image = sum(1 << i for i in set(map))
        self.spec_s, self.spec_t = spec_s, spec_t
        self.continuity_witness = continuity_witness


def induced_map(s, t, hom, cls):
    """Build the induced spectrum map and verify its continuity.

    Each point of the spectrum of t maps to its preimage.  When the class
    is not stable under preimage (the contraction property fails), raises
    ContractionFails with the witness ``{"point", "preimage"}`` of the
    first point of t whose preimage is not a point.  Continuity is
    returned as a witness on the map (``continuity_witness``, None when
    the map is continuous): for each element g of s, the preimage of
    up(Rg) must be up(R f(g)), both read from the spectra's subbases.
    ``spectrum`` parses the class name; the map holds no class.

    These n checks decide every ideal a of s: the preimage of up(a) must
    be the up-set of the ideal generated by f(a).  For a = Rg that ideal
    is R f(g), since f(1) = 1 puts f(g) in f(Rg).  A point holds a
    exactly when it holds every Rg with g in a, and preimages keep
    meets, so both sides are the meets over g in a of the principal case.
    """
    spec_s = spectrum(s, cls)
    spec_t = spectrum(t, cls)
    index_of = spec_s.index_of
    point_map = []
    for p in spec_t.points:
        back = contract_ideal(s, t, hom, p)
        if back not in index_of:
            raise ContractionFails(
                cls,
                {"point": mask_members(t, p), "preimage": mask_members(s, back)},
            )
        point_map.append(index_of[back])
    up_s, up_t = spec_s.subbasis, spec_t.subbasis
    principals_t = ideal_algebra(t).principals
    witness = None
    for g, rg in enumerate(ideal_algebra(s).principals):
        if _pull(point_map, up_s[rg]) != up_t[principals_t[hom[g]]]:
            witness = {"ideal": mask_members(s, rg)}
            break
    return InducedMap(
        hom=hom,
        spec_s=spec_s,
        spec_t=spec_t,
        map=tuple(point_map),
        kernel=kernel(s, t, hom),
        continuity_witness=witness,
    )


def _pull(point_map, point_set):
    """The preimage of a point set: the points j with point_map[j] in it."""
    out = 0
    for j, i in enumerate(point_map):
        if (point_set >> i) & 1:
            out |= 1 << j
    return out


def check_surjection(ind):
    """Whether the homomorphism s -> t behind the map is surjective and,
    for a surjection, ``kernel_upset_gap``: the first point of s in
    exactly one of the map's image and the up-set of the kernel, None
    when the two are equal.  The map carries both spaces, and each space
    its semiring.

    No field says whether a surjection's map is a homeomorphism onto its
    image: that is continuity, which the report's ``continuity_witness``
    already decides.
    Both spaces are Alexandrov, so a continuous injective map is a
    homeomorphism onto its image exactly when it is an embedding of the
    inclusion orders: for each point q of t, the points above q are the
    pull-back of the points above its image.  For a surjection f that is
    continuity itself.  Continuity on the principal ideals Rg of s says
    that the point ``map[q]`` holds g exactly when f(g) is in q, so it is
    f^-1(q).  Then f(f^-1(q)) = q, so the map is injective, and
    f^-1(q) <= f^-1(q') gives q <= q', so up(f^-1(q)) pulls back to
    up(q).  Hence the map is a homeomorphism onto its image exactly when
    it is continuous.
    """
    if len(set(ind.hom)) != ind.spec_t.semiring.n:
        return {"surjective": False}
    spec = ind.spec_s
    return {
        "surjective": True,
        "kernel_upset_gap": first_point(spec, ind.image ^ spec.subbasis[ind.kernel]),
    }


def check_density(ind):
    """Density of the induced image against two criteria, for every class;
    the sweep's oracle table decides the class where they are theorems.

    ``density_witness`` compares density with "the kernel lies in every
    point of s", ``radical_equality_witness`` with "the kernel's radical
    is the intersection of the points": None when the two agree, and
    otherwise ``{"point", "element"}``, the first point outside the
    image's closure or the criterion's first misplaced element, one of
    them None.  ``closure_kernel_upset_gap`` is the first point in
    exactly one of the image's closure and the kernel's up-set.
    """
    spec = ind.spec_s
    s = spec.semiring
    ker = ind.kernel
    cl_image = spec.closure(ind.image)
    outside = first_point(spec, spec.full & ~cl_image)

    inter = s.full_mask
    for p in spec.points:
        inter &= p

    def disagreement(wrong):  # the mask of the criterion's misplaced elements
        element = (wrong & -wrong).bit_length() - 1 if wrong else None
        if (outside is None) == (element is None):
            return None
        return {"point": outside, "element": element}

    return {
        "density_witness": disagreement(ker & ~inter),
        "radical_equality_witness": disagreement(ideal_algebra(s).radicals[ker] ^ inter),
        "closure_kernel_upset_gap": first_point(spec, cl_image ^ spec.subbasis[ker]),
    }
