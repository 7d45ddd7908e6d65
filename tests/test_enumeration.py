"""Enumeration counts were first computed by an independent full-table
brute force (all 3^9 x 3^9 raw table pairs filtered by the axioms) and
are pinned here as regression constants."""

import pytest

from iseki.enumeration import (
    canonical_key,
    enumerate_semirings,
    isomorphism_orbit_size,
    table_pair_key,
)
from iseki.errors import SizeLimitExceeded
from iseki.semiring import validate_semiring

LABELED_COUNTS = {1: 1, 2: 2, 3: 12}
ISO_COUNTS = {1: 1, 2: 2, 3: 6}


def test_trivial_count():
    assert len(list(enumerate_semirings(1))) == 1


def test_two_element_count_up_to_iso():
    reps = list(enumerate_semirings(2, up_to_iso=True))
    assert len(reps) == 2
    # One has idempotent addition (the boolean semiring), one has 1+1=0.
    sums = sorted(s.add[1][1] for s in reps)
    assert sums == [0, 1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pinned_counts(n):
    assert len(list(enumerate_semirings(n))) == LABELED_COUNTS[n]
    assert len(list(enumerate_semirings(n, up_to_iso=True))) == ISO_COUNTS[n]


@pytest.mark.parametrize("n", [2, 3])
def test_orbit_stabilizer_cross_check(n):
    """Labeled count equals the sum of orbit sizes over the iso classes."""
    reps = list(enumerate_semirings(n, up_to_iso=True))
    assert sum(isomorphism_orbit_size(s) for s in reps) == LABELED_COUNTS[n]


def test_every_enumerated_semiring_validates():
    for n in (1, 2, 3):
        for s in enumerate_semirings(n):
            validate_semiring(s.add, s.mul, s.one)


def test_canonical_representatives_are_self_canonical():
    for s in enumerate_semirings(3, up_to_iso=True):
        assert table_pair_key(s.add, s.mul) == canonical_key(s.add, s.mul)


def test_n4_is_best_effort_but_works():
    reps = list(enumerate_semirings(4, up_to_iso=True))
    assert len(reps) == 36  # computed once, pinned as a regression constant
    # Orbit-stabilizer consistency against the labeled count.
    assert sum(isomorphism_orbit_size(s) for s in reps) == 207
    assert len(list(enumerate_semirings(4))) == 207
    for s in reps[:5]:
        validate_semiring(s.add, s.mul, s.one)


def test_size_limits():
    with pytest.raises(SizeLimitExceeded):
        list(enumerate_semirings(5))
    with pytest.raises(SizeLimitExceeded):
        list(enumerate_semirings(0))


def test_deterministic_ids_and_order():
    first = [(s.id, table_pair_key(s.add, s.mul)) for s in enumerate_semirings(3, up_to_iso=True)]
    second = [(s.id, table_pair_key(s.add, s.mul)) for s in enumerate_semirings(3, up_to_iso=True)]
    assert first == second
    assert [i for i, _ in first] == [f"enum3-{k}" for k in range(len(first))]
