from collections import Counter

import pytest
from conftest import compose

import iseki.morphisms
import iseki.sweep
from iseki.enumeration import enumerate_semirings
from iseki.errors import ContractionFails
from iseki.ideals import _proper_ideal_masks, ideal_from_members, mask_members
from iseki.morphisms import (
    check_density,
    check_quotient_homeomorphism,
    contract_ideal,
    enumerate_homomorphisms,
    extend_ideal,
    induced_map,
    kernel,
)
from iseki.semiring import bourne_quotient, validate_homomorphism
from iseki.topology import up_set


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


def test_contract_and_extend(z4, z2):
    mod2 = hom_by_map(z4, z2, (0, 1, 0, 1))
    zero_t = ideal_from_members(z2, [0])
    assert mask_members(z4, contract_ideal(z4, z2, mod2, zero_t)) == [0, 2]
    m = ideal_from_members(z4, [0, 2])
    assert mask_members(z2, extend_ideal(z4, z2, mod2, m)) == [0]
    zero_s = ideal_from_members(z4, [0])
    assert mask_members(z2, extend_ideal(z4, z2, mod2, zero_s)) == [0]


def test_extend_can_be_improper(c3, boolean):
    collapse = hom_by_map(c3, boolean, (0, 1, 1))
    low = ideal_from_members(c3, [0, 1])
    assert extend_ideal(c3, boolean, collapse, low) == boolean.full_mask


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
    rep = check_quotient_homeomorphism(ind)
    assert rep["homeomorphism_onto_kernel_upset"]
    mod2 = hom_by_map(z4, z2, (0, 1, 0, 1))
    ind = induced_map(z4, z2, mod2, "prime")
    rep = check_quotient_homeomorphism(ind)
    assert rep["homeomorphism_onto_kernel_upset"]
    assert mask_members(z4, ind.kernel) == [0, 2]


def test_quotient_homeomorphism_requires_surjective(boolean, bb):
    """A map that is not onto decides nothing about the kernel up-set."""
    diag = hom_by_map(boolean, bb, (0, 3))
    rep = check_quotient_homeomorphism(induced_map(boolean, bb, diag, "prime"))
    assert rep == {"surjective": False, "homeomorphism_onto_kernel_upset": "n/a"}


def test_known_gap_surjection_image_smaller_than_kernel_upset(c3, boolean):
    """Pinned counterexample: the collapse C3 -> B with map (0, 1, 1) is a
    surjective homomorphism whose induced image is a proper subset of the
    kernel up-set, so no homeomorphism onto the kernel up-set exists.
    (A ring-style prime correspondence for arbitrary semiring surjections
    is genuinely false; only the closure of the image equals the kernel
    up-set.)"""
    collapse = hom_by_map(c3, boolean, (0, 1, 1))
    ind = induced_map(c3, boolean, collapse, "prime")
    rep = check_quotient_homeomorphism(ind)
    assert len(set(ind.map)) == len(ind.map)
    assert rep["homeomorphism_onto_image"]
    assert not rep["image_equals_kernel_upset"]
    assert not rep["homeomorphism_onto_kernel_upset"]
    density = check_density(ind)
    assert density["closure_image_equals_kernel_upset"]
    assert density["density_biconditional"]


def test_known_gap_quotient_ideal_upset_form(collapsing3):
    """Pinned counterexample: quotienting by {0,1} collapses the whole
    semiring, so the quotient spectrum is empty while the ideal's up-set
    is not; the kernel form of the embedding still holds."""
    x = ideal_from_members(collapsing3, [0, 1])
    quotient, qmap = bourne_quotient(collapsing3, x)
    assert quotient.n == 1
    ind = induced_map(collapsing3, quotient, qmap, "prime")
    rep = check_quotient_homeomorphism(ind)
    assert rep["homeomorphism_onto_kernel_upset"]  # both sides empty
    assert ind.kernel == collapsing3.full_mask
    assert ind.image_point_set() == 0
    assert up_set(ind.spec_s, x) != 0


def test_density_examples(z4, z2, c3, boolean):
    mod2 = hom_by_map(z4, z2, (0, 1, 0, 1))
    rep = check_density(induced_map(z4, z2, mod2, "prime"))
    assert rep["dense"] and rep["density_rhs"] and rep["density_biconditional"]
    ident = hom_by_map(c3, c3, (0, 1, 2))
    rep = check_density(induced_map(c3, c3, ident, "prime"))
    assert rep["dense"] and rep["density_biconditional"]


def test_density_biconditional_on_small_corpus(catalog_semirings):
    small = [s for s in catalog_semirings if s.n <= 3]
    for s in small:
        for t in small:
            for hom in enumerate_homomorphisms(s, t):
                rep = check_density(induced_map(s, t, hom, "prime"))
                assert rep["density_biconditional"], (s.id, t.id, hom)
                assert rep["closure_image_equals_kernel_upset"]
                assert rep["radical_equality_matches_density"]


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
    for s in catalog_semirings:
        if s.n > 4:
            continue
        for ideal in _proper_ideal_masks(s):
            quotient, qmap = bourne_quotient(s, ideal)
            for cls in ("prime", "proper"):
                ind = induced_map(s, quotient, qmap, cls)
                rep = check_quotient_homeomorphism(ind)
                assert rep["homeomorphism_onto_kernel_upset"], (
                    s.id,
                    mask_members(s, ideal),
                    cls,
                )


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
