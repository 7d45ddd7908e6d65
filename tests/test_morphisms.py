from collections import Counter

import pytest
from conftest import compose, reference_generated

import iseki.morphisms
import iseki.sweep
from iseki.enumeration import enumerate_semirings
from iseki.errors import ContractionFails
from iseki.ideals import (
    _proper_ideal_masks,
    ideal_algebra,
    ideal_from_members,
    mask_members,
)
from iseki.morphisms import (
    check_density,
    check_surjection,
    contract_ideal,
    enumerate_homomorphisms,
    induced_map,
    kernel,
)
from iseki.semiring import bourne_quotient, validate_homomorphism
from iseki.topology import _closed_family_cached, spectrum, up_set


def hom_by_map(s, t, mapping):
    for h in enumerate_homomorphisms(s, t):
        if h == tuple(mapping):
            return h
    raise AssertionError(f"no hom {mapping} from {s.id} to {t.id}")


def test_enumeration_examples(boolean, z2, c3):
    assert enumerate_homomorphisms(boolean, boolean) == [(0, 1)]
    assert enumerate_homomorphisms(z2, boolean) == []
    assert (0, 1, 2) in enumerate_homomorphisms(c3, c3)


def test_identity_always_present(catalog_semirings):
    for s in catalog_semirings:
        if s.n > 4:
            continue
        assert tuple(range(s.n)) in enumerate_homomorphisms(s, s)


def test_kernel_examples(bb, boolean, z4, z2):
    proj = hom_by_map(bb, boolean, (0, 0, 1, 1))  # first-coordinate projection
    assert mask_members(bb, kernel(bb, boolean, proj)) == [0, 1]  # {0} x B
    ident = hom_by_map(boolean, boolean, (0, 1))
    assert mask_members(boolean, kernel(boolean, boolean, ident)) == [0]
    mod2 = hom_by_map(z4, z2, (0, 1, 0, 1))
    assert mask_members(z4, kernel(z4, z2, mod2)) == [0, 2]


def extended(s, t, hom, ideal_of_s):
    """The ideal of t generated by the image of an ideal mask of s, by
    the element-wise fixpoint of ``iseki.verify``; may be improper."""
    image = {hom[a] for a in mask_members(s, ideal_of_s)}
    return reference_generated(t, sum(1 << b for b in image))


def test_contract_and_extend(z4, z2):
    mod2 = hom_by_map(z4, z2, (0, 1, 0, 1))
    zero_t = ideal_from_members(z2, [0])
    assert mask_members(z4, contract_ideal(z4, z2, mod2, zero_t)) == [0, 2]
    m = ideal_from_members(z4, [0, 2])
    assert mask_members(z2, extended(z4, z2, mod2, m)) == [0]
    zero_s = ideal_from_members(z4, [0])
    assert mask_members(z2, extended(z4, z2, mod2, zero_s)) == [0]


def test_extend_can_be_improper(c3, boolean):
    collapse = hom_by_map(c3, boolean, (0, 1, 1))
    low = ideal_from_members(c3, [0, 1])
    assert extended(c3, boolean, collapse, low) == boolean.full_mask


def test_principal_ideals_extend_to_principal_ideals(catalog_semirings):
    """The lemma that lets ``induced_map`` decide continuity on the
    principal ideals: a homomorphism f maps Rg into R f(g), and the ideal
    generated by the image is R f(g), for every g of every homomorphism
    between catalog semirings of order at most 4."""
    small = [s for s in catalog_semirings if s.n <= 4]
    checked = 0
    for s in small:
        for t in small:
            principals_t = ideal_algebra(t).principals
            for hom in enumerate_homomorphisms(s, t):
                for g, rg in enumerate(ideal_algebra(s).principals):
                    where = (s.id, t.id, hom, g)
                    assert extended(s, t, hom, rg) == principals_t[hom[g]], where
                    checked += 1
    assert checked > 0


def test_prime_contraction_universal(catalog_semirings):
    small = [s for s in catalog_semirings if s.n <= 3]
    for s in small:
        for t in small:
            for hom in enumerate_homomorphisms(s, t):
                induced_map(s, t, hom, "prime")  # ContractionFails would fail it


def test_maximal_contraction_can_fail(c3, c4):
    jump = hom_by_map(c3, c4, (0, 3, 3))
    with pytest.raises(ContractionFails) as err:
        induced_map(c3, c4, jump, "maximal")
    # The maximal ideal {0,1,2} of C4 pulls back to {0}, not maximal in C3.
    assert err.value.witness == {"point": [0, 1, 2], "preimage": [0]}


def test_continuity_fails_on_a_flipped_target_space(c4, c3, monkeypatch):
    """The continuity oracle can fail.  Under ``prime``, C3's points are
    {0} and {0, 1}, and up(R1) = up({0, 1}) holds the second only.  With
    the first point flipped into that up-set of the cached space, the
    pullback of up(R1) along C4 -> C3 via (0, 1, 1, 2) (which holds the
    image of R1 = {0, 1} of C4) misses it, so the first failing principal
    ideal is R1 of C4; R0 still passes."""
    squash = hom_by_map(c4, c3, (0, 1, 1, 2))
    assert induced_map(c4, c3, squash, "prime").continuity_witness is None
    target = spectrum(c3, "prime")
    r1 = ideal_algebra(c3).principals[1]
    assert target.points == (0b001, 0b011) and target.subbasis[r1] == 0b10
    flipped = {**target.subbasis, r1: 0b11}
    try:
        monkeypatch.setitem(target.__dict__, "subbasis", flipped)
        ind = induced_map(c4, c3, squash, "prime")
        assert ind.continuity_witness == {"ideal": [0, 1]}
        report = iseki.sweep.morphism_report(c4, c3, squash, "prime")
        assert report["continuity_witness"] == {"ideal": [0, 1]}
        assert not iseki.sweep.universal_oracles_hold(iseki.sweep.MORPHISM, [report])
    finally:
        _closed_family_cached.cache_clear()


def test_induced_map_examples(z4, z2, bb, boolean):
    mod2 = hom_by_map(z4, z2, (0, 1, 0, 1))
    ind = induced_map(z4, z2, mod2, "prime")
    assert [mask_members(z2, p) for p in ind.spec_t.points] == [[0]]
    assert mask_members(z4, ind.spec_s.points[ind.map[0]]) == [0, 2]
    proj = hom_by_map(bb, boolean, (0, 0, 1, 1))  # first-coordinate projection
    ind = induced_map(bb, boolean, proj, "prime")
    assert mask_members(bb, ind.spec_s.points[ind.map[0]]) == [0, 1]  # {0} x B


def test_induced_map_requires_contraction(c3, c4):
    jump = hom_by_map(c3, c4, (0, 3, 3))
    with pytest.raises(ContractionFails):
        induced_map(c3, c4, jump, "maximal")


def test_quotient_homeomorphism_examples(bb, z4, z2, catalog_semirings):
    ideal = ideal_from_members(bb, [0, 2])
    quotient, qmap = bourne_quotient(bb, ideal)
    ind = induced_map(bb, quotient, qmap, "prime")
    rep = check_surjection(ind)
    assert ind.continuity_witness is None
    assert rep == {"surjective": True, "kernel_upset_gap": None}
    mod2 = hom_by_map(z4, z2, (0, 1, 0, 1))
    ind = induced_map(z4, z2, mod2, "prime")
    rep = check_surjection(ind)
    assert ind.continuity_witness is None
    assert rep == {"surjective": True, "kernel_upset_gap": None}
    assert mask_members(z4, ind.kernel) == [0, 2]


def test_quotient_homeomorphism_requires_surjective(boolean, bb):
    """A map that is not onto decides nothing about the kernel up-set."""
    diag = hom_by_map(boolean, bb, (0, 3))
    rep = check_surjection(induced_map(boolean, bb, diag, "prime"))
    assert rep == {"surjective": False}


def test_known_gap_surjection_image_smaller_than_kernel_upset(c3, boolean):
    """Pinned counterexample: the collapse C3 -> B with map (0, 1, 1) is a
    surjective homomorphism whose induced image is a proper subset of the
    kernel up-set, so no homeomorphism onto the kernel up-set exists.
    (A ring-style prime correspondence for arbitrary semiring surjections
    is genuinely false; only the closure of the image equals the kernel
    up-set.)  The gap is the prime {0, 1}: it holds the kernel {0}, but
    it is no preimage of a point of B."""
    collapse = hom_by_map(c3, boolean, (0, 1, 1))
    ind = induced_map(c3, boolean, collapse, "prime")
    rep = check_surjection(ind)
    assert len(set(ind.map)) == len(ind.map)
    assert ind.continuity_witness is None  # a homeomorphism onto its image
    assert rep == {"surjective": True, "kernel_upset_gap": [0, 1]}
    assert check_density(ind) == {
        "density_witness": None,
        "radical_equality_witness": None,
        "closure_kernel_upset_gap": None,
    }


def test_known_gap_quotient_ideal_upset_form(collapsing3):
    """Pinned counterexample: quotienting by {0,1} collapses the whole
    semiring, so the quotient spectrum is empty while the ideal's up-set
    is not; the kernel form of the embedding still holds."""
    x = ideal_from_members(collapsing3, [0, 1])
    quotient, qmap = bourne_quotient(collapsing3, x)
    assert quotient.n == 1
    ind = induced_map(collapsing3, quotient, qmap, "prime")
    rep = check_surjection(ind)
    assert ind.continuity_witness is None
    assert rep == {"surjective": True, "kernel_upset_gap": None}  # both sides empty
    assert ind.kernel == collapsing3.full_mask
    assert ind.image == 0
    assert up_set(ind.spec_s, x) != 0


def _density_facts(ind):
    """Density and its two criteria, each from its definition: the
    closure of the image is every point of s, the kernel lies in every
    point of s, the kernel's radical is their intersection."""
    s = ind.spec_s.semiring
    dense = ind.spec_s.closure(ind.image) == ind.spec_s.full
    inter = s.full_mask
    for p in ind.spec_s.points:
        inter &= p
    return dense, ind.kernel & ~inter == 0, ideal_algebra(s).radicals[ind.kernel] == inter


def test_density_examples(z4, z2, c3, boolean):
    """Both maps are dense and meet both criteria; C3 -> B by (0, 1, 1)
    is dense too, its image holding {0}, the bottom point."""
    mod2 = hom_by_map(z4, z2, (0, 1, 0, 1))
    ident = hom_by_map(c3, c3, (0, 1, 2))
    collapse = hom_by_map(c3, boolean, (0, 1, 1))
    for s, t, hom in ((z4, z2, mod2), (c3, c3, ident), (c3, boolean, collapse)):
        ind = induced_map(s, t, hom, "prime")
        assert _density_facts(ind) == (True, True, True)
        rep = check_density(ind)
        assert rep["density_witness"] is None and rep["radical_equality_witness"] is None


def test_density_witness_on_a_flipped_closure(c3, monkeypatch):
    """With closures cut down to the point {0}, the identity of C3 is no
    longer dense under ``prime``, while both criteria still hold: the
    kernel {0} is its own radical and the intersection of the points {0}
    and {0, 1}.  So both witnesses name the first point outside the
    closure, {0, 1}, and no element."""
    ident = hom_by_map(c3, c3, (0, 1, 2))
    ind = induced_map(c3, c3, ident, "prime")
    monkeypatch.setattr(
        type(ind.spec_s), "closure", lambda spec, point_set: point_set & 0b01
    )
    rep = check_density(ind)
    witness = {"point": [0, 1], "element": None}
    assert rep["density_witness"] == rep["radical_equality_witness"] == witness


def test_density_biconditional_on_small_corpus(catalog_semirings):
    small = [s for s in catalog_semirings if s.n <= 3]
    for s in small:
        for t in small:
            for hom in enumerate_homomorphisms(s, t):
                ind = induced_map(s, t, hom, "prime")
                dense, kernel_criterion, radical_criterion = _density_facts(ind)
                assert dense == kernel_criterion == radical_criterion, (s.id, t.id, hom)
                assert check_density(ind) == {
                    "density_witness": None,
                    "radical_equality_witness": None,
                    "closure_kernel_upset_gap": None,
                }, (s.id, t.id, hom)


def test_functoriality_of_induced_maps(z4, z2, boolean, c3):
    """Composition of homomorphisms induces the composite spectrum map."""
    pairs = []
    for s, t, u in ((c3, boolean, boolean), (z4, z2, z2)):
        for first in enumerate_homomorphisms(s, t):
            for second in enumerate_homomorphisms(t, u):
                pairs.append((s, t, u, first, second))
    assert pairs
    for s, t, u, first, second in pairs:
        comp = compose(s, t, u, first, second)
        ind_first = induced_map(s, t, first, "prime")
        ind_second = induced_map(t, u, second, "prime")
        ind_comp = induced_map(s, u, comp, "prime")
        for j in range(ind_comp.spec_t.size):
            assert ind_comp.map[j] == ind_first.map[ind_second.map[j]]


def test_quotient_corollary_kernel_form_on_catalog(catalog_semirings):
    """The quotient report's kernel form holds on the catalog's semirings
    of order at most 4, and it is the map's continuity together with
    ``check_surjection``'s image comparison, each with no witness."""
    for s in catalog_semirings:
        if s.n > 4:
            continue
        for ideal in _proper_ideal_masks(s):
            quotient, qmap = bourne_quotient(s, ideal)
            rep = iseki.sweep.quotient_report(s, ideal)
            for cls in ("prime", "proper"):
                ind = induced_map(s, quotient, qmap, cls)
                field = rep[f"{cls}_homeomorphism_witness"]
                assert field is None, (s.id, mask_members(s, ideal), cls)
                assert ind.continuity_witness is None
                assert check_surjection(ind)["kernel_upset_gap"] is None


def test_homomorphism_roundtrip_serialization(z4, z2):
    """A homomorphism is written to a report as the list of its images and
    validates back to the same image tuple."""
    mod2 = hom_by_map(z4, z2, (0, 1, 0, 1))
    assert validate_homomorphism(z4, z2, list(mod2)) == mod2 == (0, 1, 0, 1)


def test_hom_search_cap(chain6):
    from iseki.errors import SizeLimitExceeded
    from iseki.semiring import validate_semiring

    add = [[max(a, b) for b in range(16)] for a in range(16)]
    mul = [[min(a, b) for b in range(16)] for a in range(16)]
    c16 = validate_semiring(add, mul, 15, id="C16")
    with pytest.raises(SizeLimitExceeded):
        enumerate_homomorphisms(chain6, c16)  # 16^6 raw maps exceeds the cap


def test_morphism_report_builds_each_induced_map_once(catalog_semirings, monkeypatch):
    """Over the order <= 3 corpus, the prime-class morphism suite builds one
    induced map, two spectra and one kernel per homomorphism."""
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (iseki.morphisms, iseki.sweep):
        for name in ("induced_map", "spectrum", "kernel"):
            if hasattr(module, name):
                counting(module, name)
    small = [s for s in catalog_semirings if s.n <= 3]
    for n in range(1, 4):
        small.extend(enumerate_semirings(n, up_to_iso=True))
    surjective = 0
    for s in small:
        for t in small:
            for hom in enumerate_homomorphisms(s, t):
                calls.clear()
                rep = iseki.sweep.morphism_report(s, t, hom, "prime")
                assert calls["induced_map"] <= 1, (s.id, t.id, hom, calls)
                assert calls["spectrum"] <= 2, (s.id, t.id, hom, calls)
                assert calls["kernel"] <= 1, (s.id, t.id, hom, calls)
                surjective += rep.get("surjective", False)
    assert surjective > 0
