import pickle

import numpy as np
import pytest
from conftest import atoms, nontrivial_idempotents, nullchain
from hypothesis import given, settings
from hypothesis import strategies as st

from iseki.errors import AxiomViolation, InvalidHomomorphism, RangeError, SizeLimitExceeded
from iseki import _kernels, enumeration
from iseki.enumeration import enumerate_semirings
from iseki.ideals import (
    _ideal_masks_all,
    _proper_ideal_masks,
    classify,
    ideal_from_members,
    mask_members,
)
from iseki.semiring import (
    bourne_quotient,
    direct_product,
    validate_homomorphism,
    validate_semiring,
)
from iseki.topology import Spectrum, spectrum
from iseki.verify import verify_kernel_upset_gap


def test_boolean_semiring_validates():
    s = validate_semiring([[0, 1], [1, 1]], [[0, 0], [0, 1]], 1, id="B")
    assert s.n == 2 and s.one == 1


def test_z2_validates():
    s = validate_semiring([[0, 1], [1, 0]], [[0, 0], [0, 1]], 1, id="Z2")
    assert s.n == 2


def test_broken_multiplicative_identity():
    with pytest.raises(AxiomViolation) as err:
        validate_semiring([[0, 1], [1, 0]], [[0, 0], [0, 0]], 1)
    assert err.value.axiom == "mul-identity"
    assert err.value.witness == (1,)


def test_malformed_tables():
    with pytest.raises(RangeError):
        validate_semiring([[0, 1]], [[0, 0], [0, 1]], 1)
    with pytest.raises(RangeError):
        validate_semiring([[0, 5], [5, 5]], [[0, 0], [0, 1]], 1)
    with pytest.raises(RangeError):
        validate_semiring([[0, 1], [1, 1]], [[0, 0], [0, 1]], 7)


B_ADD = [[0, 1], [1, 1]]
B_MUL = [[0, 0], [0, 1]]


@pytest.mark.parametrize(
    "add, mul",
    [
        (B_ADD, B_MUL),
        (((0, 1), (1, 1)), ((0, 0), (0, 1))),
        (np.array(B_ADD), np.array(B_MUL)),
        (np.array(B_ADD, dtype=np.uint8), [(0, 0), np.array([0, 1])]),
        ((iter(row) for row in B_ADD), map(iter, B_MUL)),
    ],
    ids=["lists", "tuples", "arrays", "mixed", "generators"],
)
def test_tables_accepted_as_nested_integer_sequences(add, mul):
    """Lists, tuples, numpy arrays and one-shot iterators (tables and
    rows alike) all give the same tuple tables."""
    s = validate_semiring(add, mul, np.int64(1), id="B")
    assert s.add == ((0, 1), (1, 1)) and s.mul == ((0, 0), (0, 1))
    assert all(type(v) is int for t in (s.add, s.mul) for row in t for v in row)
    assert type(s.one) is int
    assert s == validate_semiring(B_ADD, B_MUL, 1, id="B")


@pytest.mark.parametrize(
    "add, mul, one, message",
    [
        ([[0, 1]], B_MUL, 1, "addition table is not square: shape (1, 2)"),
        ([0, 1], B_MUL, 1, "addition table is not square: shape (2,)"),
        (0, B_MUL, 1, "addition table is not square: shape ()"),
        (B_ADD, [[0, 0, 0]] * 3, 1, "table shapes differ: add (2, 2) vs mul (3, 3)"),
        ([[False, True], [True, True]], B_MUL, 1, "add table has non-integer entries"),
        (B_ADD, np.array(B_MUL, dtype=bool), 1, "mul table has non-integer entries"),
        ([[0.0, 1.0], [1.0, 1.0]], B_MUL, 1, "add table has non-integer entries"),
        ([[0, 5], [1, 1.0]], B_MUL, 1, "add table has non-integer entries"),
        ([[0, 5], [5, 5]], B_MUL, 1, "add[0,1] = 5 out of range 0..1"),
        (B_ADD, [[0, 0], [0, -1]], 1, "mul[1,1] = -1 out of range 0..1"),
        ([[0, 1], [1]], B_MUL, 1, "addition table has rows of different lengths"),
        (B_ADD, [[0, 0], [0]], 1, "multiplication table has rows of different lengths"),
        (B_ADD, B_MUL, 1.9, "one 1.9 is not an integer"),
        (B_ADD, B_MUL, True, "one True is not an integer"),
        (B_ADD, B_MUL, "1", "one '1' is not an integer"),
        (B_ADD, B_MUL, None, "one None is not an integer"),
    ],
    ids=[
        "not-square",
        "flat",
        "scalar",
        "shapes-differ",
        "bool",
        "numpy-bool",
        "float",
        "float-before-range",
        "out-of-range",
        "negative",
        "ragged-add",
        "ragged-mul",
        "float-one",
        "bool-one",
        "str-one",
        "none-one",
    ],
)
def test_malformed_table_messages(add, mul, one, message):
    with pytest.raises(RangeError) as err:
        validate_semiring(add, mul, one)
    assert str(err.value) == message


def _mutations(s):
    for table_name in ("add", "mul"):
        table = getattr(s, table_name)
        for i in range(s.n):
            for j in range(s.n):
                for v in range(s.n):
                    if v != table[i][j]:
                        mutated = [list(row) for row in table]
                        mutated[i][j] = v
                        yield table_name, mutated


def test_single_cell_mutations_never_crash(boolean, z2, c3, z4):
    """Mutating any accepted table cell either keeps validity or raises
    AxiomViolation with a witness, never anything else."""
    for s in (boolean, z2, c3, z4):
        for table_name, mutated in _mutations(s):
            add = mutated if table_name == "add" else s.add
            mul = mutated if table_name == "mul" else s.mul
            try:
                validate_semiring(add, mul, s.one)
            except AxiomViolation as exc:
                assert exc.axiom
                assert 1 <= len(exc.witness) <= 3


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=64, deadline=None)
def test_mutation_property_z4(i, j, v, table_pick):
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mul = [[(a * b) % 4 for b in range(4)] for a in range(4)]
    target = add if table_pick % 2 == 0 else mul
    target = [list(row) for row in target]
    target[i][j] = v
    try:
        validate_semiring(
            target if table_pick % 2 == 0 else add,
            mul if table_pick % 2 == 0 else target,
            1,
        )
    except AxiomViolation:
        pass


def test_direct_product_boolean_square(boolean):
    bb = direct_product(boolean, boolean)
    assert bb.n == 4
    # (1,0) and (0,1) square to themselves and are neither 0 nor 1.
    assert nontrivial_idempotents(bb) == [1, 2]


def test_direct_product_with_trivial_is_isomorphic(boolean, trivial):
    p = direct_product(boolean, trivial)
    assert p.n == boolean.n
    assert p.add == boolean.add
    assert p.mul == boolean.mul


def test_direct_product_z2_square(z2):
    p = direct_product(z2, z2)
    one = p.one
    assert p.add[one][one] == 0


def test_direct_product_size_cap(z4):
    with pytest.raises(SizeLimitExceeded):
        direct_product(direct_product(z4, z4), z4)


def test_products_of_catalog_pairs_validate(catalog_semirings):
    small = [s for s in catalog_semirings if s.n <= 4]
    for s in small:
        for t in small:
            if s.n * t.n <= 16:
                direct_product(s, t)


def test_nontrivial_idempotents_examples(boolean, z2, bb):
    assert nontrivial_idempotents(boolean) == []
    assert nontrivial_idempotents(z2) == []
    assert nontrivial_idempotents(bb) == [1, 2]


def test_values_are_read_only_and_compare_by_tables(bb):
    """A semiring, a space and a classification are read-only values,
    because every cache keys on them: twins (equal tables, other ids) give
    equal spaces over the same points and equal classifications, with
    equal hashes, and each keeps its own id."""
    twin = validate_semiring(bb.add, bb.mul, bb.one, id="twin")
    points = spectrum(bb, "prime").points
    spaces = [Spectrum(bb, points), Spectrum(twin, points)]
    assert spaces[0] == spaces[1] and hash(spaces[0]) == hash(spaces[1])
    assert spaces[1].semiring.id == "twin" and spaces[1].up == spectrum(bb, "prime").up
    assert Spectrum(bb, points[:1]) != spaces[0]
    verdicts = [classify(s, 1) for s in (bb, twin)]
    assert verdicts[0] == verdicts[1] and hash(verdicts[0]) == hash(verdicts[1])
    assert verdicts[0] is not verdicts[1] and verdicts[0] != classify(bb, points[0])
    for value, field in (
        (twin, "id"), (twin, "add"), (twin, "structure"),
        (spaces[0], "semiring"), (spaces[0], "points"),
        (verdicts[0], "prime"), (verdicts[0], "witnesses"),
    ):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    copy = pickle.loads(pickle.dumps(twin))
    assert copy == bb and hash(copy) == hash(bb) and copy.id == "twin"


def test_bourne_quotient_by_zero_is_identity(boolean):
    q, hom = bourne_quotient(boolean, ideal_from_members(boolean, [0]))
    assert q.n == 2
    assert hom == (0, 1)
    assert q.add == boolean.add


def test_bourne_quotient_bb_by_axis(bb, boolean):
    ideal = ideal_from_members(bb, [0, 2])  # B x {0}
    q, hom = bourne_quotient(bb, ideal)
    assert q.n == 2
    assert q.add == boolean.add
    assert q.mul == boolean.mul
    assert all(hom[m] == 0 for m in mask_members(bb, ideal))


def test_bourne_quotient_z4(z4):
    q, hom = bourne_quotient(z4, ideal_from_members(z4, [0, 2]))
    assert q.n == 2
    assert hom == (0, 1, 0, 1)
    assert q.add == ((0, 1), (1, 0))  # xor: it is Z2


def test_bourne_quotient_collapse(collapsing3):
    q, hom = bourne_quotient(collapsing3, ideal_from_members(collapsing3, [0, 1]))
    assert q.n == 1
    assert hom == (0, 0, 0)


def test_quotient_maps_are_surjective_homomorphisms(catalog_semirings):
    for s in catalog_semirings:
        for ideal in _proper_ideal_masks(s):
            q, hom = bourne_quotient(s, ideal)
            assert validate_homomorphism(s, q, hom) == hom
            assert set(hom) == set(range(q.n))
            assert all(hom[m] == 0 for m in mask_members(s, ideal))


def test_bourne_quotients_are_semirings(small_semirings):
    """bourne_quotient does not scan its quotient for the axioms: a
    surjective homomorphism carries them over.  Every Bourne quotient of
    the catalog, the labeled semirings of orders 1-4, atoms(1..6) and
    nullchain(1..8), the improper ideal's included, passes the scan, and
    validate_semiring of its own tables gives the same value."""
    corpus = [*small_semirings, *map(atoms, range(1, 7)), *map(nullchain, range(1, 9))]
    quotients = 0
    for s in corpus:
        for ideal in _ideal_masks_all(s):
            q, _ = bourne_quotient(s, ideal)
            assert _kernels.axiom_witness(q.add, q.mul, q.one) is None, (s.id, ideal)
            validated = validate_semiring(q.add, q.mul, q.one, id=q.id)
            assert (validated.id, validated.structure) == (q.id, q.structure)
            quotients += 1
    assert quotients == 1618


def test_bourne_quotient_rejects_non_ideal_masks(c3, bb):
    """The Bourne relation is a congruence only for an ideal: the empty
    mask, a mask without 0, and a mask closed under * but not under +
    ({0,1,2} in BxB, where 1 + 2 = 3) are refused; the improper ideal is
    accepted."""
    for s, members in ((c3, []), (c3, [1]), (bb, [0, 1, 2])):
        mask = ideal_from_members(s, members)
        with pytest.raises(RangeError, match=rf"^mask {mask} is not an ideal of {s.id}$"):
            bourne_quotient(s, mask)
    q, hom = bourne_quotient(c3, c3.full_mask)
    assert (q.id, q.n, hom) == ("C3/{0,1,2}", 1, (0, 0, 0))


def test_bourne_quotient_fibres_are_the_bourne_classes(monkeypatch, catalog_semirings):
    """On the catalog and every semiring of orders 1-5, for every ideal
    mask I (the improper one included): the relation a + i = b + j for
    some i, j in I, by brute force, is transitive, which is what lets
    bourne_quotient find the classes in one pass; and the quotient map's
    fibres are exactly its classes."""
    monkeypatch.setattr(enumeration, "ENUMERATION_CAP", 5)
    corpus = list(catalog_semirings)
    for n in range(1, 6):
        corpus.extend(enumerate_semirings(n, up_to_iso=True))
    pairs = 0
    for s in corpus:
        elements = range(s.n)
        for ideal in _ideal_masks_all(s):
            members = mask_members(s, ideal)
            related = {
                a: {
                    b for b in elements
                    if any(s.add[a][i] == s.add[b][j] for i in members for j in members)
                }
                for a in elements
            }
            for a in elements:
                for b in related[a]:
                    assert related[b] <= related[a], (s.id, members, a, b)
            _, hom = bourne_quotient(s, ideal)
            for a in elements:
                assert related[a] == {b for b in elements if hom[b] == hom[a]}
            pairs += 1
    assert pairs > 1349


def test_enum4_10_quotient_and_kernel_upset_gap(enum4_10):
    """enum4-10 mod {0,3} is B, and the quotient's prime spectrum pulls
    back to {0,3} alone, short of the kernel's up-set {0,3}, {0,1,3}."""
    [enumerated] = [
        s for s in enumerate_semirings(4, up_to_iso=True) if s.id == "enum4-10"
    ]
    assert enumerated == enum4_10
    q, hom = bourne_quotient(enum4_10, ideal_from_members(enum4_10, [0, 3]))
    assert (q.id, q.n, hom) == ("enum4-10/{0,3}", 2, (0, 1, 1, 0))
    s_points = spectrum(enum4_10, "prime").to_json()["points"]
    q_points = spectrum(q, "prime").to_json()["points"]
    assert (s_points, q_points) == ([[0, 3], [0, 1, 3]], [[0]])
    assert verify_kernel_upset_gap(enum4_10, q, hom, s_points, q_points)


def test_homomorphism_validation_rejects_bad_maps(boolean, z2):
    with pytest.raises(InvalidHomomorphism) as err:
        validate_homomorphism(z2, boolean, (0, 1))
    assert (err.value.law, err.value.witness) == ("preserves-add", (1, 1))
    assert validate_homomorphism(boolean, boolean, (0, 1)) == (0, 1)
    with pytest.raises(InvalidHomomorphism) as err:
        validate_homomorphism(boolean, boolean, (0, 0))
    assert (err.value.law, err.value.witness) == ("preserves-one", (1,))
    with pytest.raises(InvalidHomomorphism) as err:
        validate_homomorphism(boolean, boolean, (0, 2))
    assert err.value.law == "total-map"


@pytest.mark.parametrize(
    "images, message",
    [
        ([0, 1.9], "image 1.9 is not an integer"),
        (["0", "1"], "image '0' is not an integer"),
        ([0, True], "image True is not an integer"),
        ([0, None], "image None is not an integer"),
    ],
    ids=["float", "str", "bool", "none"],
)
def test_homomorphism_images_must_be_integers(boolean, images, message):
    """Map images follow the table-entry rule (``errors.as_int``), as
    numpy integers do: no float, string, bool or None is rounded or
    parsed into an image."""
    assert validate_homomorphism(boolean, boolean, np.array([0, 1])) == (0, 1)
    with pytest.raises(RangeError) as err:
        validate_homomorphism(boolean, boolean, images)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "members, message",
    [
        ([0, 1.9], "element 1.9 is not an integer"),
        (["1"], "element '1' is not an integer"),
        ([True], "element True is not an integer"),
        ([None], "element None is not an integer"),
    ],
    ids=["float", "str", "bool", "none"],
)
def test_ideal_members_must_be_integers(boolean, members, message):
    """Ideal members follow the same rule as table entries."""
    assert ideal_from_members(boolean, [np.int64(0), 1]) == 3
    with pytest.raises(RangeError) as err:
        ideal_from_members(boolean, members)
    assert str(err.value) == message
