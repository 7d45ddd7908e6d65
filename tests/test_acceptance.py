"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

The corpus is the builtin catalog (including Bourne quotients) plus every
semiring of order <= 3 up to isomorphism, under all eight class tags.
Criterion 9's middle clause (every surjective homomorphism induces a
homeomorphism onto the kernel's up-set) is implemented exactly as stated
and is expected to fail: honest counterexamples exist in the corpus (see
test_morphisms.test_known_gap_surjection_image_smaller_than_kernel_upset);
it is marked strict-xfail so the failure stays visible without masking
the other criteria.
"""

import io
import time

import pytest
from conftest import isomorphism_orbit_size

from iseki.catalog import builtin_catalog
from iseki.enumeration import enumerate_semirings
from iseki.serialize import canonical_json
from iseki.sweep import sweep
from iseki.topology import (
    check_connected,
    spectrum,
    strong_disconnection_witness,
    idempotent_from_disconnection,
)

RUNTIME_BUDGET_S = 60.0


@pytest.fixture(scope="module")
def acceptance():
    start = time.perf_counter()
    report = sweep(enumerate_n=[1, 2, 3], log=io.StringIO())
    elapsed = time.perf_counter() - start
    return report, elapsed


def _line(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")


def _tally(report, name):
    return report["tallies"][name]


def test_criterion_01_t0_universal(acceptance):
    report, elapsed = acceptance
    t = _tally(report, "t0")
    ok = t["failures"] == 0 and t["instances"] > 0 and elapsed < RUNTIME_BUDGET_S
    _line(
        1,
        ok,
        f"T0 on {t['instances']} (semiring, class) instances, "
        f"{t['failures']} failures, sweep {elapsed:.1f}s < {RUNTIME_BUDGET_S:.0f}s",
    )
    assert t["failures"] == 0
    assert t["instances"] >= 8 * (len(report["corpus"]["semirings"]))
    assert elapsed < RUNTIME_BUDGET_S


def test_criterion_02_t1_characterization(acceptance):
    report, _ = acceptance
    t = _tally(report, "t1_equivalence")
    ok = t["failures"] == 0
    _line(2, ok, f"T1 boolean == all-maximals predicate on {t['instances']} instances")
    assert ok, t["witnesses"]


def test_criterion_03_sobriety(acceptance):
    report, _ = acceptance
    corollary = _tally(report, "sober_corollary")
    agreement = _tally(report, "sober_agreement")
    ok = corollary["failures"] == 0 and agreement["failures"] == 0
    _line(
        3,
        ok,
        f"proper/prime/strongly-irreducible sober on {corollary['instances']} "
        f"instances; direct vs criterion agree on {agreement['instances']}",
    )
    assert corollary["failures"] == 0, corollary["witnesses"]
    assert agreement["failures"] == 0, agreement["witnesses"]


def test_criterion_04_radical_oracle(acceptance):
    report, _ = acceptance
    t = _tally(report, "radical_oracle")
    ok = t["failures"] == 0
    _line(4, ok, f"power radical == prime intersection on {t['instances']} semirings")
    assert ok, t["witnesses"]


def test_criterion_05_upset_laws(acceptance):
    report, _ = acceptance
    laws = _tally(report, "upset_laws")
    mech = _tally(report, "quasi_compact_mechanism")
    gens = _tally(report, "generator_upset_identity")
    ok = laws["failures"] == 0 and mech["failures"] == 0 and gens["failures"] == 0
    _line(
        5,
        ok,
        f"up-set laws (antitone, chain, sum identity <=3, radical laws) on "
        f"{laws['instances']} instances",
    )
    assert laws["failures"] == 0, laws["witnesses"]
    assert mech["failures"] == 0, mech["witnesses"]
    assert gens["failures"] == 0, gens["witnesses"]


def test_criterion_06_connectedness(acceptance):
    report, _ = acceptance
    t = _tally(report, "connected_when_zero_present")
    corollary_ok = True
    for entry in builtin_catalog():
        s = entry.semiring
        for tag in ("proper", "principal", "fg(1)", "fg(2)"):
            spec = spectrum(s, tag)
            rep = check_connected(spec)
            if rep["zero_ideal_in_points"] and rep["connected"] is not True:
                corollary_ok = False
    ok = t["failures"] == 0 and corollary_ok
    _line(
        6,
        ok,
        f"zero ideal in points implies connected on {t['instances']} instances; "
        f"proper/fg/principal corollary instantiated on the catalog",
    )
    assert t["failures"] == 0, t["witnesses"]
    assert corollary_ok


def test_criterion_07_idempotent_extraction(acceptance, bb):
    report, _ = acceptance
    t = _tally(report, "idempotent_extraction")
    spec = spectrum(bb, "maximal")
    witness = strong_disconnection_witness(spec)
    element = idempotent_from_disconnection(spec, witness)
    ok = t["failures"] == 0 and element in (1, 2)
    _line(
        7,
        ok,
        f"idempotent extracted on {t['instances']} disconnected instances; "
        f"B x B yields element {element} ((0,1) or (1,0))",
    )
    assert t["failures"] == 0, t["witnesses"]
    assert element in (1, 2)
    assert bb.mul[element][element] == element


def test_criterion_08_irreducible_upsets(acceptance):
    report, _ = acceptance
    t = _tally(report, "irreducible_upsets")
    ok = t["failures"] == 0
    _line(
        8,
        ok,
        f"closure(point) == up-set(point), irreducible, on {t['instances']} instances",
    )
    assert ok, t["witnesses"]


def test_criterion_09_morphism_suite(acceptance):
    report, _ = acceptance
    names = (
        "morphism_prime_contraction",
        "morphism_continuity",
        "morphism_density_biconditional",
        "morphism_closure_image_equals_kernel_upset",
        "morphism_prime_radical_equality",
        "morphism_homeomorphism_onto_image",
        "quotient_kernel_homeomorphism",
        "quotient_map_surjective",
    )
    failures = {name: _tally(report, name)["failures"] for name in names}
    homs = report["morphisms"]["homs"]
    ok = all(v == 0 for v in failures.values())
    _line(
        9,
        ok,
        f"prime-class contraction/continuity/density/closure over {homs} homs; "
        f"quotient embedding (kernel form) over "
        f"{_tally(report, 'quotient_kernel_homeomorphism')['instances']} instances",
    )
    assert all(v == 0 for v in failures.values()), failures


@pytest.mark.xfail(
    strict=True,
    reason="genuine theorem gap: a surjective semiring homomorphism need "
    "not induce a homeomorphism onto the kernel's up-set (pinned "
    "counterexample: the collapse C3 -> B with map (0,1,1)); only the "
    "closure of the image equals the kernel up-set",
)
def test_criterion_09b_surjective_homeomorphism_as_stated(acceptance):
    report, _ = acceptance
    obs = report["observations"]["surjective_image_equals_kernel_upset"]
    _line(
        "9b",
        obs["failures"] == 0,
        f"surjective homomorphism onto-kernel-upset homeomorphism: "
        f"{obs['failures']} violations in {obs['instances']} surjections "
        f"(known theorem gap, witnesses recorded)",
    )
    assert obs["failures"] == 0, obs["witnesses"]


def test_criterion_10_enumeration_regression():
    two = list(enumerate_semirings(2, up_to_iso=True))
    three = list(enumerate_semirings(3, up_to_iso=True))
    three_labeled = list(enumerate_semirings(3))
    ok = (
        len(two) == 2
        and len(three) == 6
        and len(three_labeled) == 12
        and sum(isomorphism_orbit_size(s) for s in three) == 12
    )
    _line(
        10,
        ok,
        f"enumeration pinned: n=2 iso {len(two)} (=2), n=3 iso {len(three)} (=6), "
        f"n=3 labeled {len(three_labeled)} (=12)",
    )
    assert len(two) == 2
    assert len(three) == 6
    assert len(three_labeled) == 12


def test_criterion_11_determinism(acceptance):
    report, _ = acceptance
    baseline = canonical_json(report)
    again = canonical_json(sweep(enumerate_n=[1, 2, 3], log=io.StringIO()))
    ok = baseline == again
    _line(11, ok, f"byte-identical sweeps across reruns ({len(baseline)} bytes)")
    assert ok
