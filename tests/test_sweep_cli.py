import copy
import hashlib
import importlib
import importlib.util
import io
import json
import os
import pickle
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest
from conftest import atoms, emit, reference_tallies, report_sections

import iseki._kernels
import iseki.enumeration
import iseki.sweep
import iseki.topology
from iseki.catalog import builtin_catalog, named
from iseki.cli import main
from iseki.enumeration import enumerate_semirings
from iseki.errors import EmptyFamily, InvalidHomomorphism, ParseError
from iseki.ideals import _proper_ideal_masks, ideal_algebra
from iseki.morphisms import enumerate_homomorphisms
from iseki.semiring import bourne_quotient, validate_semiring
from iseki.serialize import canonical_json, semiring_from_json
from iseki.sweep import (
    IDEAL_LATTICE,
    INSTANCE_KEY,
    MORPHISM,
    ORACLES,
    QUOTIENT,
    QUOTIENT_CLASSES,
    TOPOLOGY,
    WITNESS_CAP,
    ideal_lattice_report,
    morphism_report,
    quotient_report,
    sweep,
    topology_instance_report,
    topology_report_by_check,
    verdicts,
)


@pytest.fixture(scope="module")
def small_report():
    corpus = [named(name) for name in ("B", "Z2", "C3", "Z4")]
    return sweep(corpus=corpus, log=io.StringIO())


def test_small_sweep_is_clean(small_report):
    assert small_report["failures"] == 0
    assert small_report["corpus"]["size"] == 4
    assert small_report["tallies"]["t0"]["failures"] == 0


def test_sweep_rejects_empty_corpus():
    with pytest.raises(EmptyFamily):
        sweep(corpus=[], log=io.StringIO())


def test_sweep_rejects_one_class_in_two_spellings():
    """``fg(1)`` and ``fg:1`` name one class, whose instances would
    otherwise be swept and tallied twice."""
    with pytest.raises(ParseError, match=r"duplicate class 'fg\(1\)'"):
        sweep(
            corpus=[named("B")],
            classes=["fg(1)", "fg:1"],
            log=io.StringIO(),
        )


def test_sweep_reports_canonical_class_names():
    """A class is reported, and the oracle gates read it, by its canonical
    name: ``" prime"`` is the prime class, so sober_corollary applies."""
    report = sweep(
        corpus=[named("C3")], classes=[" prime"], log=io.StringIO()
    )
    assert report["classes"] == ["prime"]
    assert [rep["class"] for rep in report["topology"]] == ["prime"]
    assert report["tallies"]["sober_corollary"]["instances"] == 1


def test_sweep_rejects_unknown_class_before_any_work(monkeypatch):
    """An unknown class name raises before the corpus is enumerated."""

    def forbidden(n, up_to_iso):
        raise AssertionError("enumerated before the class names were parsed")

    monkeypatch.setattr(iseki.sweep, "enumerate_semirings", forbidden)
    with pytest.raises(ParseError, match="unknown spectrum class 'bogus'"):
        sweep(classes=["bogus"], enumerate_n=[4], log=io.StringIO())


def test_sweep_builds_one_space_per_tables_and_point_set(monkeypatch):
    """On the ``--enumerate 3`` sweep the space cache misses once per
    distinct (tables, point set) that the topology, morphism and quotient
    reports ask for, fewer than the distinct (tables, class) pairs, and a
    class name is parsed once at the sweep's entry and once per distinct
    (tables, class)."""
    real = iseki.topology._parse_class
    parsed = []

    def counting(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(iseki.topology, "_parse_class", counting)
    iseki.topology._class_points.cache_clear()
    iseki.topology._closed_family_cached.cache_clear()
    report = sweep(enumerate_n=[3], log=io.StringIO())
    misses = iseki.topology._closed_family_cached.cache_info().misses

    semirings = builtin_catalog()
    semirings += enumerate_semirings(3, up_to_iso=True)
    asked = {(s, cls) for s in semirings for cls in report["classes"]}
    asked |= {
        (bourne_quotient(s, ideal)[0], cls)
        for s in semirings
        for ideal in _proper_ideal_masks(s)
        for cls in QUOTIENT_CLASSES
    }
    spaces = {(s, iseki.topology.spectrum(s, cls).points) for s, cls in asked}
    assert misses == len(spaces) < len(asked)
    assert len(parsed) == len(report["classes"]) + len(asked)


def test_sweep_deterministic_across_runs():
    corpus = [named(name) for name in ("B", "C3", "Z4")]
    runs = [canonical_json(sweep(corpus=corpus, log=io.StringIO())) for _ in range(2)]
    assert runs[0] == runs[1]


def test_default_sweep_runs_in_process(monkeypatch):
    """With default arguments every topology instance report is built in
    this process, once per distinct (tables, point set): B's eight classes
    share the points {0}, C3's share {0} and {0,1} except maximal, whose
    only point is {0,1}.  The report still has one row per (semiring,
    class), in order."""
    real = iseki.sweep.topology_instance_report
    calls = []

    def counting(s, cls):
        calls.append((s.id, cls))
        return real(s, cls)

    monkeypatch.setattr(iseki.sweep, "topology_instance_report", counting)
    corpus = [named(name) for name in ("B", "C3")]
    report = sweep(corpus=corpus, log=io.StringIO())
    assert calls == [("B", "proper"), ("C3", "proper"), ("C3", "maximal")]
    assert [(rep["semiring"], rep["class"]) for rep in report["topology"]] == [
        (s.id, cls) for s in corpus for cls in iseki.sweep.DEFAULT_CLASSES
    ]


def test_memoized_reports_equal_per_instance_reports():
    """The sweep builds one report body per distinct structure and stamps
    each instance's ids on a copy; building every instance's report on its
    own gives the same lists.  The corpus repeats tables (B, B/{0},
    C3/{0,1}, ... share B's), so a memo key or a stamp that is wrong
    changes some row."""
    report = sweep(enumerate_n=[3], log=io.StringIO())
    semirings = builtin_catalog()
    semirings += enumerate_semirings(3, up_to_iso=True)
    assert [s.id for s in semirings] == [
        entry["id"] for entry in report["corpus"]["semirings"]
    ]
    assert len({s.structure for s in semirings}) < len(semirings)

    assert report["topology"] == [
        topology_instance_report(s, cls)
        for s in semirings
        for cls in report["classes"]
    ]
    assert report["ideal_checks"] == [ideal_lattice_report(s) for s in semirings]
    small = [s for s in semirings if s.n <= iseki.sweep.MORPHISM_ORDER_CAP]
    assert report["morphisms"]["reports"] == [
        morphism_report(s, t, hom, "prime")
        for s in small
        for t in small
        for hom in enumerate_homomorphisms(s, t)
    ]
    assert report["quotients"]["reports"] == [
        quotient_report(s, ideal)
        for s in semirings
        for ideal in _proper_ideal_masks(s)
    ]


@pytest.mark.parametrize("wrong", [0b0101, 0b1111], ids=["non-ideal", "too-big"])
def test_lattice_oracle_reads_every_join(c4, monkeypatch, wrong):
    """``sum_lub_intersection_glb`` checks each join a + Rg of the ideal
    search.  In C4, {0} + R2 is {0, 1, 2}; replaced by {0, 2} (not an
    ideal) or by C4 (outside the pair sums), the row fails with the
    witness ({0}, R2).  The first report fills every cache that reads the
    joins, so only the lattice check sees the wrong entry."""
    algebra = ideal_algebra(c4)
    assert ideal_lattice_report(c4)["lattice_witness"] is None
    row = list(algebra.joins[1])
    assert row[2] == 0b0111
    row[2] = wrong
    try:
        monkeypatch.setitem(algebra.joins, 1, tuple(row))
        report = ideal_lattice_report(c4)
    finally:
        ideal_algebra.cache_clear()
    assert report["lattice_witness"] == [[0], [0, 1, 2]]


@pytest.mark.parametrize(
    ("edit", "witness"),
    [
        ({0b0111: None}, [[0], [0, 1, 2]]),
        (
            {
                0b0010: (0b0010, 0b0010, 0b0110, 0b1110),
                0b0110: (0b0110, 0b0110, 0b0110, 0b1110),
                0b1110: (0b1110,) * 4,
            },
            [[1], [0]],
        ),
        ({0b0101: (0b0101, 0b0111, 0b0111, 0b1111)}, [[0, 2], [0, 1, 2]]),
    ],
    ids=["ideal-missing", "keys-without-zero", "key-not-closed"],
)
def test_lattice_oracle_needs_every_join_condition(c4, monkeypatch, edit, witness):
    """Each edit of C4's join table (max and min on 0 < 1 < 2 < 3) keeps
    every entry equal to its pair sums, so a different condition of
    ``sum_lub_intersection_glb`` must fail it: the ideal {0, 1, 2} dropped
    from the keys; {1}, {1, 2} and {1, 2, 3} added, closed under + but
    without 0; {0, 2} added, whose join with R2 is not itself.  C4 is
    idempotent, so an added key is its own radical."""
    algebra = ideal_algebra(c4)
    assert ideal_lattice_report(c4)["lattice_witness"] is None
    joins = {a: row for a, row in {**algebra.joins, **edit}.items() if row}
    try:
        monkeypatch.setattr(algebra, "joins", joins)
        monkeypatch.setattr(algebra, "radicals", {a: a for a in [*algebra.joins, *edit]})
        report = ideal_lattice_report(c4)
    finally:
        ideal_algebra.cache_clear()
    assert report["lattice_witness"] == witness


def _clear_iseki_caches():
    for name, module in list(sys.modules.items()):
        if name == "iseki" or name.startswith("iseki."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _union_ideal_masks(add, mul):
    """``_kernels.ideal_masks`` with the join a + Rg taken as a | Rg."""
    principals = [sum({1 << row[g] for row in mul}) for g in range(len(add))]
    joins, todo = {}, {1}
    while todo:
        a = todo.pop()
        joins[a] = tuple(a if (a >> g) & 1 else a | rg for g, rg in enumerate(principals))
        todo.update(b for b in joins[a] if b not in joins)
    return dict(sorted(joins.items()))


def test_lattice_oracle_fails_on_a_union_join(monkeypatch):
    """An ideal search that joins a with Rg by union finds non-ideals.
    In Z2 x Z2 (XOR and AND, one = 3) it joins {0, 1} with R2 = {0, 2}
    into {0, 1, 2}, which the search itself finds and which lies between
    the union and the pair sums, so only an entry that must equal the
    pair sums fails it.  The report is called directly: the builtin
    catalog's Bourne quotients crash on the non-ideals."""
    s = validate_semiring(
        [[a ^ b for b in range(4)] for a in range(4)],
        [[a & b for b in range(4)] for a in range(4)],
        3,
        id="Z2xZ2",
    )
    _clear_iseki_caches()
    try:
        monkeypatch.setattr(iseki._kernels, "ideal_masks", _union_ideal_masks)
        report = ideal_lattice_report(s)
    finally:
        monkeypatch.undo()
        _clear_iseki_caches()
    assert report["lattice_witness"] == [[0, 1], [0, 2]]


def test_bourne_quotient_raises_on_a_union_join(monkeypatch):
    """bourne_quotient proves its quotient's axioms from its homomorphism
    check, so an ideal search that joins by union must make it raise and
    never return tables that fail an axiom.  On the labeled semirings of
    orders 2-4, three of the masks the faulty search calls ideals raise
    and 636 give a semiring; the builtin catalog raises too."""
    corpus = [s for n in (2, 3, 4) for s in enumerate_semirings(n)]
    raised, semirings = [], 0
    _clear_iseki_caches()
    try:
        monkeypatch.setattr(iseki._kernels, "ideal_masks", _union_ideal_masks)
        for s in corpus:
            for ideal in _proper_ideal_masks(s):
                try:
                    q, _ = bourne_quotient(s, ideal)
                except InvalidHomomorphism:
                    raised.append((s.id, ideal))
                    continue
                assert iseki._kernels.axiom_witness(q.add, q.mul, q.one) is None
                semirings += 1
        with pytest.raises(InvalidHomomorphism):
            builtin_catalog()
    finally:
        monkeypatch.undo()
        _clear_iseki_caches()
    assert raised == [("enum4-39", 13), ("enum4-104", 11), ("enum4-149", 7)]
    assert semirings == 636


def _wrong_r3(algebra):
    principals = list(algebra.principals)
    principals[3] = 0b1001
    return "principals", tuple(principals)


def _wrong_radical_of_z4(algebra):
    return "radicals", {**algebra.radicals, 0b1111: 0b0001}


@pytest.mark.parametrize(
    ("wrong", "witness_field", "witness"),
    [
        (_wrong_r3, "product_witness", [[0, 2], [0, 3]]),
        (_wrong_radical_of_z4, "radical_monotone_witness", [[0], [0, 1, 2, 3]]),
    ],
    ids=["product", "radical"],
)
def test_ideal_lattice_rows_fail_on_a_wrong_algebra(
    z4, monkeypatch, wrong, witness_field, witness
):
    """``product_in_intersection`` reads the principal ideals and
    ``radical_monotone`` the radicals along the joins.  In Z4 with R3
    replaced by {0, 3}, R(2 * 3) = R2 is not inside R2 & {0, 3}; with the
    radical of Z4 replaced by {0}, rad({0}) = {0, 2} is not inside the
    radical of its join {0} + R1 = Z4."""
    algebra = ideal_algebra(z4)
    assert ideal_lattice_report(z4)[witness_field] is None
    try:
        monkeypatch.setattr(algebra, *wrong(algebra))
        report = ideal_lattice_report(z4)
    finally:
        ideal_algebra.cache_clear()
    assert report[witness_field] == witness


def test_sweep_rows_fail_on_a_wrong_column(monkeypatch):
    """Every closed set is read through ``Spectrum.columns``.  With the
    last point dropped from the column of element 0, which every point
    holds, no ideal's up-set holds that point, and these rows of
    ``sweep(enumerate_n=[3])`` report universal failures."""
    real = iseki.topology.Spectrum.columns.func

    def dropped(spec):
        columns = list(real(spec))
        if spec.size:
            columns[0] &= ~(1 << (spec.size - 1))
        return tuple(columns)

    wrong = cached_property(dropped)
    wrong.__set_name__(iseki.topology.Spectrum, "columns")
    iseki.topology._closed_family_cached.cache_clear()
    try:
        monkeypatch.setattr(iseki.topology.Spectrum, "columns", wrong)
        report = sweep(enumerate_n=[3], log=io.StringIO())
    finally:
        monkeypatch.undo()
        iseki.topology._closed_family_cached.cache_clear()
    failing = [name for name, e in report["tallies"].items() if e["failures"]]
    assert report["failures"] > 0
    assert sorted(failing) == [
        "connected_when_zero_present",
        "generator_upset_identity",
        "irreducible_upsets",
        "morphism_continuity",
        "morphism_density_biconditional",
        "morphism_homeomorphism_onto_image",
        "morphism_prime_radical_equality",
        "quasi_compact_mechanism",
        "quotient_kernel_homeomorphism",
        "sober_agreement",
        "t1_equivalence",
        "upset_laws",
    ]


def test_sweep_enumerates_homomorphisms_once_per_table_pair(monkeypatch):
    """The catalog sweep enumerates the homomorphisms of each distinct pair
    of tables once, not once per ordered pair of ids."""
    real = iseki.sweep.enumerate_homomorphisms
    calls = []

    def counting(s, t):
        calls.append((s.structure, t.structure))
        return real(s, t)

    monkeypatch.setattr(iseki.sweep, "enumerate_homomorphisms", counting)
    report = sweep(log=io.StringIO())
    small = {
        s.structure for s in builtin_catalog() if s.n <= iseki.sweep.MORPHISM_ORDER_CAP
    }
    assert len(calls) == len(set(calls)) == len(small) ** 2
    assert report["morphisms"]["pairs"] > len(calls)


def test_sweep_summary_counts_distinct_instances():
    """The stderr summary of the catalog sweep names how many distinct
    spaces, homomorphisms and quotients it checked; the catalog has 240
    topology instances, 318 homomorphisms and 62 quotients."""
    log = io.StringIO()
    report = sweep(log=log)
    assert len(report["topology"]) == 240
    assert (report["morphisms"]["homs"], report["quotients"]["instances"]) == (318, 62)
    assert (
        "16 distinct spaces, 12 distinct homomorphisms, 21 distinct quotients"
        in log.getvalue()
    )


def test_oracle_verdicts_read_no_identity_field():
    """The sweep decides each oracle once per distinct report body and
    replays the verdict for every instance, so an oracle may read body
    fields and the class but no id.  On every report of the
    ``--enumerate 3`` sweep, replacing the identity fields with sentinels
    leaves every oracle's applies/holds outcome and failure detail
    unchanged."""
    identity = ("semiring", "source", "target", "quotient", "hom")
    report = sweep(enumerate_n=[3], log=io.StringIO())
    for kind, reports in report_sections(report).items():
        assert reports, kind
        for rep in reports:
            masked = {**rep, **{field: object() for field in identity if field in rep}}
            assert verdicts(kind, masked) == verdicts(kind, rep), (kind, rep)


@pytest.fixture(scope="module")
def enumerate3_report():
    return sweep(enumerate_n=[3], log=io.StringIO())


@pytest.fixture(scope="module")
def enumerate3_sections(enumerate3_report):
    return report_sections(enumerate3_report)


def test_report_copies_and_pickles_encode_the_same(enumerate3_report):
    """A deep copy and a pickle round trip of the ``--enumerate 3`` report,
    whose rows become plain dicts, equal it and encode to the same text."""
    text = canonical_json(enumerate3_report)
    for copied in (
        copy.deepcopy(enumerate3_report),
        pickle.loads(pickle.dumps(enumerate3_report)),
    ):
        assert copied == enumerate3_report
        assert canonical_json(copied) == text


def test_report_rows_are_read_only(enumerate3_report):
    """No row of the report can be changed after stamping."""
    for row in enumerate3_report["topology"]:
        t0 = row["t0_witness"]
        with pytest.raises(TypeError):
            row["t0_witness"] = [[0], [0]]
        assert row["t0_witness"] is t0


def test_first_row_of_each_body_is_that_body(enumerate3_sections):
    """The sweep keeps no body apart from its rows: the first row of each
    body on the ``--enumerate 3`` sweep is the body itself."""
    for kind, rows in enumerate3_sections.items():
        first = {}
        for row in rows:
            first.setdefault(id(row.body), row)
        assert all(row.body is row for row in first.values()), kind


def test_later_rows_hold_their_body_rows_objects(enumerate3_sections):
    """Every other row's body is an earlier row of its kind, and the row
    holds that body row's keys and, outside its identity fields, its very
    value objects."""
    for kind, rows in enumerate3_sections.items():
        seen, shared = set(), 0
        for row in rows:
            if row.body is not row:
                assert id(row.body) in seen, kind
                assert row.keys() == row.body.keys(), kind
                assert all(
                    row[field] is value
                    for field, value in row.body.items()
                    if field not in row.names
                ), kind
                shared += 1
            seen.add(id(row))
        assert shared, kind


def test_rows_of_one_kind_share_one_tuple_of_identity_names(enumerate3_sections):
    """A row keeps its identity fields' names, not its own identity dict,
    and every row of one kind keeps the same tuple."""
    for kind, rows in enumerate3_sections.items():
        assert len({id(row.names) for row in rows}) == 1, kind


def test_quotient_rows_share_one_string_per_class_field_name(enumerate3_sections):
    """The class-prefixed fields of every quotient row are named by the
    same four string objects."""
    prefixes = tuple(f"{cls}_" for cls in QUOTIENT_CLASSES)
    names = {
        id(field)
        for row in enumerate3_sections[QUOTIENT]
        for field in row
        if field.startswith(prefixes)
    }
    assert len(names) == 2 * len(QUOTIENT_CLASSES)


def _not_t0(monkeypatch):
    """Every space's T0 fact fails, with the criterion of sobriety still
    holding.  A property shadows the cached one on every space, cached
    or not, and leaves no value behind."""
    monkeypatch.setattr(iseki.topology.Spectrum, "t0_witness", property(lambda spec: [[0], [0]]))
    return TOPOLOGY, "sober_corollary"


def _no_quotient_homeomorphism(monkeypatch):
    real = iseki.sweep.quotient_report

    def forced(s, ideal):
        rep = real(s, ideal)
        for cls in QUOTIENT_CLASSES:
            rep[f"{cls}_homeomorphism_witness"] = {"class": cls}
        return rep

    monkeypatch.setattr(iseki.sweep, "quotient_report", forced)
    return QUOTIENT, "quotient_kernel_homeomorphism"


@pytest.mark.parametrize("force", [_not_t0, _no_quotient_homeomorphism])
def test_tally_by_multiplicity_equals_per_instance_replay(monkeypatch, force):
    """The sweep decides each oracle once per (body key, class) and counts
    the group's size; replaying every oracle on every instance gives the
    same tallies and observations.  The forced failure hits more than
    WITNESS_CAP instances, and the witnesses come from several distinct
    bodies of the ``--enumerate 3`` sweep.  Without a quotient
    homeomorphism the prime and proper rows of
    quotient_kernel_homeomorphism both fail on every instance, so each
    instance gives its prime witness and then its proper one."""
    kind, name = force(monkeypatch)
    report = sweep(enumerate_n=[3], log=io.StringIO())
    assert (report["tallies"], report["observations"]) == reference_tallies(report)
    entry = report["tallies"][name]
    assert entry["failures"] > WITNESS_CAP == len(entry["witnesses"])

    def instance(rep):
        return json.dumps([rep[field] for field in INSTANCE_KEY[kind]])

    rows = {instance(rep): rep for rep in report_sections(report)[kind]}
    assert len({id(rows[instance(w)].body) for w in entry["witnesses"]}) > 1
    if kind == QUOTIENT:
        assert [w["witness"]["class"] for w in entry["witnesses"]] == ["prime", "proper"] * 5
        assert entry["witnesses"][0]["ideal"] == entry["witnesses"][1]["ideal"]


def test_report_builders_canonicalise_the_class_name(c3, boolean):
    """``morphism_report`` and ``topology_report_by_check`` stamp the
    canonical class name, however it is spelled: `` prime`` gives the
    prime report."""
    hom = (0, 1, 1)
    prime = morphism_report(c3, boolean, hom, "prime")
    assert "radical_equality_witness" in prime
    assert morphism_report(c3, boolean, hom, " prime") == prime
    assert topology_report_by_check(c3, "fg:1") == topology_report_by_check(c3, "fg(1)")
    assert topology_report_by_check(c3, "fg:1")[0]["class"] == "fg(1)"


def test_same_tables_under_two_ids_keep_their_own_ids(tmp_path, capsys):
    """Two documents with the same tables share every cached analysis (a
    semiring's equality is its tables), yet ``iseki spectrum`` prints each
    one's own id, and the sweep's reports for the pair differ only in
    their id fields."""
    b = named("B")
    twin = validate_semiring(b.add, b.mul, b.one, id="twin")
    assert twin == b and hash(twin) == hash(b)
    for s in (b, twin):
        path = tmp_path / f"{s.id}.json"
        emit(path, s)
        assert main(["spectrum", str(path), "--class", "prime"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "semiring": s.id, "class": "prime", "points": [[0]],
        }

    report = sweep(corpus=[b, twin], log=io.StringIO())
    ids = ("semiring", "source", "target", "quotient")
    for kind, reports in report_sections(report).items():
        # Topology, lattice and quotient reports run over B then twin;
        # morphism reports over (B, B), (B, twin), (twin, B), (twin, twin).
        parts = 4 if kind == MORPHISM else 2
        size = len(reports) // parts
        assert size > 0 and size * parts == len(reports), kind
        bodies = [
            [{k: v for k, v in rep.items() if k not in ids} for rep in reports[i:i + size]]
            for i in range(0, len(reports), size)
        ]
        assert all(body == bodies[0] for body in bodies), kind
    assert {rep["semiring"] for rep in report["topology"][8:]} == {"twin"}
    assert [rep["quotient"] for rep in report["quotients"]["reports"]] == [
        "B/{0}", "twin/{0}",
    ]
    assert [(rep["source"], rep["target"]) for rep in report["morphisms"]["reports"]] == [
        ("B", "B"), ("B", "twin"), ("twin", "B"), ("twin", "twin"),
    ]


# SHA-256 of the canonical report of ``sweep(enumerate_n=...)``.  A change
# to the report must update the digest here and say why.
REPORT_DIGESTS = {
    (): "2e376f64d2feab388845ef978719e9c8da7677a069f1c3152a327ebfe6b300cf",
    (3,): "c2c022ec79555eaae7cb587a7e56db570561a5d7a8475d9483d73f9d54287ed1",
    (4,): "9d82b0c2ba5821a7943e0d74063690c443daad92e5e3c3d1f56c4072c20fadb7",
    (5,): "f7c9ec3c010e160231c13515494c7a19c1cee83f0167008e03e60294c12866ad",
}


@pytest.mark.parametrize(
    "enumerate_n",
    list(REPORT_DIGESTS),
    ids=["catalog", "enumerate3", "enumerate4", "enumerate5"],
)
def test_report_bytes_match_pinned_digest(enumerate_n, monkeypatch):
    """The report bytes of ``iseki sweep`` and ``--enumerate 3`` / ``4``,
    and of the order-5 sweep (past the CLI's cap; about 0.2 s, most of its
    rows first instances of their bodies), are pinned, so a refactor that
    changes any report field fails here."""
    cap = max((iseki.enumeration.ENUMERATION_CAP, *enumerate_n))
    monkeypatch.setattr(iseki.enumeration, "ENUMERATION_CAP", cap)
    text = canonical_json(sweep(enumerate_n=list(enumerate_n), log=io.StringIO()))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == REPORT_DIGESTS[enumerate_n]


def _perfbench_inputs():
    """``perfbench/inputs.py``, loaded from its file: perfbench is no
    package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["acceptance", "enumerate4", "boolean4"])
def test_tallies_match_the_benchmark_expectations(workload):
    """The seed-0 documents of each benchmark workload, swept with its
    enumerated orders, give the ``[instances, passes, failures]`` of every
    tally and observation that ``perfbench/expected.json`` records."""
    inputs = _perfbench_inputs()
    corpus = [semiring_from_json(doc) for doc in inputs.documents(workload, 0)]
    report = sweep(
        corpus=corpus,
        enumerate_n=inputs.WORKLOADS[workload]["enumerate_n"],
        log=io.StringIO(),
    )
    path = Path(inputs.__file__).with_name("expected.json")
    expected = json.loads(path.read_text(encoding="utf-8"))[workload]
    for section in ("tallies", "observations"):
        counts = {
            name: [entry["instances"], entry["passes"], entry["failures"]]
            for name, entry in report[section].items()
        }
        assert counts == expected[section], section
    assert report["failures"] == expected["oracle_failures"]


@pytest.mark.parametrize(
    "module, name",
    [
        ("iseki.ideals", "_ideal_masks_all"),
        ("iseki.ideals", "_proper_ideal_masks"),
        ("iseki.ideals", "prime_ideal_masks"),
        ("iseki.ideals", "maximal_ideal_masks"),
        ("iseki.ideals", "classified_ideals"),
        ("iseki.topology", "_closed_family_cached"),
    ],
)
def test_benchmark_cache_contract(module, name):
    """``perfbench/sample.py`` reports ``cache_info()`` of these caches
    when it traces a sweep; renaming one must fail here, not there."""
    cache = getattr(importlib.import_module(module), name, None)
    assert cache is not None, f"{module}.{name} is gone; perfbench/sample.py reads it"
    assert callable(getattr(cache, "cache_info", None)), f"{module}.{name} has no cache_info"


# The fields of each kind of row: identity fields, then the fields that
# the checks decide, each reported once.  A witness is its verdict, None
# when the property holds; only ``contraction`` keeps a boolean beside
# its witness, and ``surjective`` and ``unmet_hypothesis`` are read by
# gates alone.
_MORPHISM_FIELDS = {"source", "target", "hom", "class", "contraction", "contraction_witness"}
_CONTRACTING_FIELDS = _MORPHISM_FIELDS | {
    "continuity_witness", "kernel", "density_witness", "closure_kernel_upset_gap",
    "radical_equality_witness", "surjective",
}
ROW_FIELDS = {
    TOPOLOGY: {
        "semiring", "class", "points", "t0_witness", "t1_witness", "t1_equivalence_witness",
        "sober_agreement_witness", "quasi_compact_witness", "connected_witness",
        "upset_laws_witness", "generator_upset_witness", "irreducible_upsets_witness",
        "disconnection_witness", "idempotent", "unmet_hypothesis", "extraction_witness",
    },
    IDEAL_LATTICE: {
        "semiring", "proper_ideals", "radical_oracle_witness", "classification_witness",
        "radical_monotone_witness", "product_witness", "lattice_witness",
    },
    QUOTIENT: {
        "semiring", "ideal", "quotient", "quotient_size", "surjectivity_witness", "kernel",
        "prime_homeomorphism_witness", "prime_ideal_upset_gap",
        "proper_homeomorphism_witness", "proper_ideal_upset_gap",
    },
    "surjective": _CONTRACTING_FIELDS | {"kernel_upset_gap"},
    "not surjective": _CONTRACTING_FIELDS,
    "contraction failed": _MORPHISM_FIELDS,
}


def test_sweep_report_shape(enumerate3_report, c3, c4):
    """The report's sections, and the exact fields of every row of the
    ``--enumerate 3`` report by kind: no row carries a field that another
    field of its row restates.  The sweep's prime morphism rows all
    contract, so a contraction-failed row comes from ``C3 -> C4`` under
    ``maximal``."""
    assert set(enumerate3_report) == {
        "corpus", "classes", "topology", "ideal_checks", "morphisms", "quotients",
        "tallies", "observations", "failures",
    }
    shapes = {}
    for kind, rows in report_sections(enumerate3_report).items():
        for row in rows:
            shapes.setdefault(_row_shape(kind, row), set()).add(frozenset(row))
    jump = morphism_report(c3, c4, (0, 3, 3), "maximal")
    assert jump["contraction"] is False
    shapes["contraction failed"] = {frozenset(jump)}
    assert shapes == {kind: {frozenset(fields)} for kind, fields in ROW_FIELDS.items()}


def _row_shape(kind, row):
    """The ``ROW_FIELDS`` key of a row of ``kind``."""
    if kind != MORPHISM:
        return kind
    if not row["contraction"]:
        return "contraction failed"
    return "surjective" if row["surjective"] else "not surjective"


@pytest.mark.parametrize(
    "kind, oracle",
    [
        pytest.param(kind, oracle, id=f"{oracle.name}:{oracle.field}")
        for kind, oracles in ORACLES.items()
        for oracle in oracles
    ],
)
def test_every_oracle_fails_with_its_field_as_witness(enumerate3_sections, kind, oracle):
    """Every ``ORACLES`` row names a field of the rows it applies to, and
    holds exactly when that field is None: a sentinel in the field of the
    first ``--enumerate 3`` row that the oracle applies to fails that row
    with ``{"witness": sentinel}``, and None in it holds."""
    row = next(
        row for row in enumerate3_sections[kind] if oracle.applies is None or oracle.applies(row)
    )
    assert oracle.field in ROW_FIELDS[_row_shape(kind, row)]
    sentinel = object()
    for value, expected in ((sentinel, (False, {"witness": sentinel})), (None, (True, None))):
        forced = {**row, oracle.field: value}
        assert [(ok, detail) for o, ok, detail in verdicts(kind, forced) if o is oracle] == [
            expected
        ]


def test_readme_oracle_table_matches_oracles():
    """README's oracle table has one line per ``ORACLES`` row, in order:
    its name, kind, field and gate, a gate being its docstring."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    header = "| oracle | kind | field | gate |\n|---|---|---|---|\n"
    assert readme.count(header) == 1
    table = readme.split(header)[1].split("\n\n")[0].splitlines()
    assert [[cell.strip() for cell in line.strip("|").split("|")] for line in table] == [
        [
            f"`{oracle.name}`",
            "universal" if oracle.universal else "observation",
            f"`{oracle.field}`",
            "—" if oracle.applies is None else oracle.applies.__doc__,
        ]
        for oracles in ORACLES.values()
        for oracle in oracles
    ]


def _write(tmp_path, name):
    path = tmp_path / f"{name}.json"
    emit(path, named(name))
    return str(path)


def test_cli_validate(tmp_path, capsys):
    path = _write(tmp_path, "B")
    assert main(["validate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True

    # RFC 8259 section 8.1: a parser may ignore a leading byte-order mark.
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    assert main(["validate", str(bom)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "id": "bad",
                "n": 2,
                "one": 1,
                "add": [[0, 1], [1, 0]],
                "mul": [[0, 0], [0, 0]],
            }
        )
    )
    assert main(["validate", str(bad)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and out["axiom"] == "mul-identity"


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err
    assert (
        "invalid JSON at line 1, column 2: "
        "Expecting property name enclosed in double quotes"
    ) in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["topology", "{B}", "--class", "weird"], "unknown spectrum class 'weird'"),
        (["spectrum", "{B}", "--class", "fg(x)"], "unknown spectrum class 'fg(x)'"),
        (["export-dot", "{B}", "--class", "weird"], "unknown spectrum class"),
        (["morphisms", "{B}", "{B}", "--class", "weird"], "unknown spectrum class"),
        (["ideals", "{missing}"], "No such file or directory"),
        (["topology", "{missing}"], "No such file or directory"),
        (["sweep", "{B}", "{fake_B}"], "duplicate corpus id 'B'"),
        (["sweep", "--classes", "prime", "prime"], "duplicate class 'prime'"),
        (["sweep", "--classes", "weird"], "unknown spectrum class 'weird'"),
        (["topology", "{missing}", "--checks", "t0,bogus"], "unknown checks: bogus"),
        (["topology", "{missing}", "--checks", ",,"], "no checks named in ',,'"),
        (["sweep", "{missing}", "--enumerate", "0"], "--enumerate must be at least 1, got 0"),
        (["sweep", "{B}", "--enumerate", "5"], "enumeration capped at n <= 4 (asked for 5)"),
        (["validate", "{not_utf8}"], "not valid UTF-8 at byte 0"),
        (["validate", "{bom_not_utf8}"], "not valid UTF-8 at byte 3"),
        (["validate", "{bool_one}"], "field 'one' must be int"),
        (["validate", "{empty_tables}"], "element count must be at least 1"),
        (["topology", "{B}", "--class", "fg(-1)"], "generator bound of at least 0"),
        (["validate", "{deep}"], "JSON nested too deeply"),
        (["validate", "{long_n}"], "integer literal too long"),
        (["validate", "{long_entry}"], "integer literal too long"),
    ],
    ids=[
        "topology-class",
        "spectrum-class",
        "export-dot-class",
        "morphisms-class",
        "ideals-missing-file",
        "topology-missing-file",
        "sweep-duplicate-id",
        "sweep-duplicate-class",
        "sweep-unknown-class",
        "checks-before-input",
        "no-checks-before-input",
        "sweep-enumerate-zero",
        "sweep-enumerate-above-cap",
        "validate-not-utf8",
        "validate-bom-not-utf8",
        "validate-bool-one",
        "validate-empty-tables",
        "topology-negative-fg",
        "validate-deep-nesting",
        "validate-long-n",
        "validate-long-entry",
    ],
)
def test_cli_bad_input_exit_code(tmp_path, capsys, argv, message):
    """Unusable input exits 2 with one line on stderr, before any work."""
    paths = {
        "B": _write(tmp_path, "B"),
        "missing": str(tmp_path / "missing.json"),
        "fake_B": str(tmp_path / "fake_B.json"),
        "not_utf8": tmp_path / "not_utf8.json",
        "bom_not_utf8": tmp_path / "bom_not_utf8.json",
        "bool_one": tmp_path / "bool_one.json",
        "empty_tables": tmp_path / "empty_tables.json",
        "deep": tmp_path / "deep.json",
        "long_n": tmp_path / "long_n.json",
        "long_entry": tmp_path / "long_entry.json",
    }
    emit(paths["fake_B"], validate_semiring([[0, 1], [1, 0]], [[0, 0], [0, 1]], 1, id="B"))
    paths["not_utf8"].write_bytes(b"\xff\xfe")
    # The offset counts the skipped byte-order mark.
    paths["bom_not_utf8"].write_bytes(b"\xef\xbb\xbf\xff")
    paths["bool_one"].write_text(
        json.dumps({"id": "B", "n": 2, "one": True, "add": [[0, 1], [1, 1]], "mul": [[0, 0], [0, 1]]})
    )
    paths["empty_tables"].write_text(
        json.dumps({"id": "E", "n": 0, "one": 0, "add": [], "mul": []})
    )
    paths["deep"].write_text("[" * 200_000)
    # 5,000 digits: over CPython's default limit of 4,300 for int parsing.
    long = "1" * 5000
    b_doc = '{"id": "B", "n": %s, "one": 1, "add": [[0, 1], [1, %s]], "mul": [[0, 0], [0, 1]]}'
    paths["long_n"].write_text(b_doc % (long, 1))
    paths["long_entry"].write_text(b_doc % (2, long))
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


def test_cli_sweep_accepts_every_class_the_api_parses(tmp_path):
    """``--classes`` takes what ``parse_class`` takes, ``fg(k)`` included,
    as ``sweep(classes=...)`` and ``topology --class`` do."""
    out_path = tmp_path / "r.json"
    argv = ["sweep", "--enumerate", "3", "--classes", "fg(2)", "prime", "--out", str(out_path)]
    assert main(argv) == 0
    assert json.loads(out_path.read_text())["classes"] == ["fg(2)", "prime"]


def test_cli_ideals(tmp_path, capsys):
    path = _write(tmp_path, "Z4")
    assert main(["ideals", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [row["members"] for row in out["ideals"]] == [[0], [0, 2]]
    assert out["ideals"][1]["maximal"] is True


def test_cli_spectrum_and_topology(tmp_path, capsys):
    path = _write(tmp_path, "C3")
    assert main(["spectrum", path, "--class", "prime"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["points"] == [[0], [0, 1]]

    assert main(["topology", path, "--class", "prime", "--checks", "t0,t1,sober"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["t0_witness"] is None and out["t1_witness"] == [0]
    assert "connected_witness" not in out

    assert main(["topology", path, "--class", "prime"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["connected_witness"] is None

    assert main(["topology", path, "--class", "prime", "--checks", "bogus"]) == 2


def test_cli_topology_on_an_empty_space(tmp_path, capsys):
    """The trivial semiring has no proper ideal, so its prime space is
    empty: it has no components and no points, so it is connected and T1,
    and ``iseki topology`` exits 0 with both witnesses null."""
    path = _write(tmp_path, "trivial")
    assert main(["topology", path, "--class", "prime"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["points"] == []
    assert out["connected_witness"] is None
    assert out["t1_witness"] is None


def test_cli_morphisms(tmp_path, capsys):
    src = _write(tmp_path, "Z4")
    dst = _write(tmp_path, "Z2")
    assert main(["morphisms", src, dst, "--class", "prime"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["homs"]) == 1
    assert out["homs"][0]["hom"] == [0, 1, 0, 1]


def test_density_fields_do_not_depend_on_the_class(tmp_path, capsys):
    """A check reports the same fields under every class, so a proper-class
    morphism row whose contraction holds carries the radical-equality
    field too; only the oracle table decides where the class matters.
    And no report row restates a fact that another field holds."""
    c3, b = _write(tmp_path, "C3"), _write(tmp_path, "B")
    assert main(["morphisms", c3, b, "--class", "proper"]) == 0
    rows = json.loads(capsys.readouterr().out)["homs"]
    held = [row for row in rows if row["contraction"]]
    assert held
    assert all("radical_equality_witness" in row for row in held)
    report = sweep(enumerate_n=[3], log=io.StringIO())
    restated = {
        "quasi_compact", "zero_ideal_in_points", "density_biconditional",
        "homeomorphism_onto_image",
    }
    for section in (
        report["topology"], report["morphisms"]["reports"], report["quotients"]["reports"]
    ):
        assert all(restated.isdisjoint(row) for row in section)


def test_cli_export_dot(tmp_path, capsys):
    path = _write(tmp_path, "C3")
    assert main(["export-dot", path, "--class", "prime"]) == 0
    out = capsys.readouterr().out
    assert "digraph" in out and out.count("->") == 1


def test_cli_sweep_files_and_out(tmp_path, capsys):
    files = [_write(tmp_path, name) for name in ("B", "Z2")]
    out_path = tmp_path / "report.json"
    assert main(["sweep", *files, "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["failures"] == 0
    assert report["corpus"]["size"] == 2


def test_cli_fg_spellings_print_the_same_bytes(tmp_path, capsys):
    """``fg:1`` and ``fg(1)`` name one class: each verb that takes
    ``--class`` prints the same bytes and exit code for both."""
    c3, b = _write(tmp_path, "C3"), _write(tmp_path, "B")
    for verb in (["spectrum", c3], ["topology", c3], ["morphisms", c3, b], ["export-dot", c3]):
        runs = []
        for cls in ("fg:1", "fg(1)"):
            code = main([*verb, "--class", cls])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1] and runs[0][1], verb


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["entries"]) >= 10


def test_sober_corollary_verdict_shared_by_sweep_and_cli(tmp_path, capsys, monkeypatch):
    """One oracle row decides the sweep tally and the topology exit code:
    a spectrum that is not T0 (so not sober), where the generic-point
    criterion agrees, passes sober_agreement, and fails sober_corollary,
    with the T0 witness, only for the classes the corollary covers.  The
    t0 row fails under every class, so ``iseki topology`` exits 1 under
    ``maximal`` too, where sober_corollary does not apply."""
    real_t0 = iseki.topology.CHECKS["t0"]
    monkeypatch.setitem(
        iseki.topology.CHECKS, "t0", lambda spec: {**real_t0(spec), "t0_witness": [[0], [0]]}
    )
    monkeypatch.setitem(
        iseki.topology.CHECKS, "sober", lambda spec: {"sober_agreement_witness": None}
    )
    report = sweep(corpus=[named("C3")], log=io.StringIO())
    assert report["tallies"]["sober_agreement"]["failures"] == 0
    assert report["tallies"]["sober_corollary"]["witnesses"] == [
        {"semiring": "C3", "class": cls, "witness": [[0], [0]]}
        for cls in ("proper", "prime", "strongly-irreducible")
    ]
    assert report["tallies"]["t0"]["failures"] == len(report["classes"])
    path = _write(tmp_path, "C3")
    assert main(["topology", path, "--class", "prime"]) == 1
    assert main(["topology", path, "--class", " prime "]) == 1
    rep, _ = topology_report_by_check(named("C3"), "maximal")
    names = {oracle.name for oracle, _, _ in verdicts(TOPOLOGY, rep)}
    assert "t0" in names and "sober_corollary" not in names
    assert main(["topology", path, "--class", "maximal"]) == 1


def test_cli_topology_runs_each_check_once(tmp_path, capsys, monkeypatch):
    """One ``iseki topology`` call runs every check in topology.CHECKS
    exactly once, whether it prints all of them or a --checks subset."""
    runs = dict.fromkeys(iseki.topology.CHECKS, 0)

    def counting(group, real):
        def check(spec):
            runs[group] += 1
            return real(spec)
        return check

    for group, real in list(iseki.topology.CHECKS.items()):
        monkeypatch.setitem(iseki.topology.CHECKS, group, counting(group, real))
    path = _write(tmp_path, "C3")
    for extra in ([], ["--checks", "t0,t1,sober"]):
        runs.update(dict.fromkeys(runs, 0))
        assert main(["topology", path, "--class", "prime", *extra]) == 0
        assert runs == dict.fromkeys(iseki.topology.CHECKS, 1), extra


def test_radical_equality_verdict_shared_by_sweep_and_cli(tmp_path, capsys, monkeypatch):
    """The morphisms verb exits 1 on the same morphism_prime_radical_equality
    failure the sweep tallies, and only for the prime class; the tally
    witness is the field's value."""
    real = iseki.sweep.check_density
    mismatch = {"point": None, "element": 0}

    def mismatched(ind):
        return {**real(ind), "radical_equality_witness": mismatch}

    monkeypatch.setattr(iseki.sweep, "check_density", mismatched)
    corpus = [named(name) for name in ("C3", "B")]
    report = sweep(corpus=corpus, log=io.StringIO())
    tally = report["tallies"]["morphism_prime_radical_equality"]
    assert tally["failures"] == tally["instances"] > 0
    assert {
        "source": "C3", "target": "B", "hom": [0, 1, 1], "witness": mismatch
    } in tally["witnesses"]
    src, dst = _write(tmp_path, "C3"), _write(tmp_path, "B")
    assert main(["morphisms", src, dst, "--class", "prime"]) == 1
    assert main(["morphisms", src, dst, "--class", " prime "]) == 1
    assert main(["morphisms", src, dst, "--class", "maximal"]) == 0


def test_sweep_failure_summary_on_stderr(tmp_path, capsys, monkeypatch):
    """A failing sweep prints one stderr line per failing universal oracle,
    with its failure count and first witness; the report is unchanged."""
    _not_t0(monkeypatch)
    out_path = tmp_path / "report.json"
    path = _write(tmp_path, "C3")
    assert main(["sweep", path, "--out", str(out_path)]) == 1
    corpus = [named("C3")]
    report = sweep(corpus=corpus, log=io.StringIO())
    assert out_path.read_text() == canonical_json(report)
    failing = [name for name, entry in report["tallies"].items() if entry["failures"]]
    assert failing == ["sober_agreement", "sober_corollary", "t0"]
    summary = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("failed: ")
    ]
    assert summary == [
        "failed: sober_agreement: 8 of 8 instances; first witness "
        '{"class": "proper", "semiring": "C3", "witness": {"criterion": null, "t0": [[0], [0]]}}',
        "failed: sober_corollary: 3 of 3 instances; first witness "
        '{"class": "proper", "semiring": "C3", "witness": [[0], [0]]}',
        "failed: t0: 8 of 8 instances; first witness "
        '{"class": "proper", "semiring": "C3", "witness": [[0], [0]]}',
    ]


_WITHOUT_NUMPY = """
import sys
import iseki.cli, iseki.sweep
assert "numpy" not in sys.modules, "importing iseki.cli and iseki.sweep loaded numpy"
sys.modules["numpy"] = None  # any later import of numpy raises ImportError
raise SystemExit(iseki.cli.main(["sweep", "--enumerate", "2", "--out", sys.argv[1]]))
"""


def test_runs_without_numpy(tmp_path):
    """The package imports and sweeps in a process where numpy cannot be
    imported; numpy is a test-only dependency."""
    src = str(Path(iseki.sweep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["failures"] == 0


_COLD_IMPORT = """
import io, json, sys
before = set(sys.modules)
import iseki, iseki.serialize, iseki.sweep
loaded = sorted(set(sys.modules) - before)
report = iseki.sweep.sweep(log=io.StringIO())
print(json.dumps([loaded, "iseki.catalog" in sys.modules, report["corpus"]["size"],
                  report["failures"]]))
"""


def test_cold_import_loads_no_code_generator(tmp_path):
    """A fresh process that imports the sweep path loads neither
    ``dataclasses`` nor the modules it pulls in, nor ``typing``, nor the
    catalog; a sweep without a corpus then imports the catalog and runs
    clean.  The difference of ``sys.modules`` ignores what ``site``
    loaded before."""
    src = str(Path(iseki.sweep.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT],
        env={**os.environ, "PYTHONPATH": src},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, catalog_loaded, size, failures = json.loads(proc.stdout)
    assert "iseki.sweep" in loaded
    unwanted = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "iseki.catalog"}
    assert unwanted.intersection(loaded) == set()
    assert catalog_loaded and size == len(builtin_catalog()) and failures == 0


_DECISIONS = """
import io, json, re, sys
import iseki.errors, iseki.ideals, iseki.morphisms, iseki.semiring, iseki.sweep, iseki.topology
from iseki.morphisms import InducedMap
from iseki.topology import CHECKS, Spectrum, strong_disconnection_witness

calls = {"ideal_from_members": 0, "validate_homomorphism": 0}


def counted(name, real):
    def wrapper(*args):
        calls[name] += 1
        return real(*args)
    return wrapper


for name, module in (("ideal_from_members", iseki.ideals),
                     ("validate_homomorphism", iseki.semiring)):
    real, wrapper = getattr(module, name), counted(name, getattr(module, name))
    for loaded in [m for key, m in sys.modules.items() if key.startswith("iseki")]:
        if getattr(loaded, name, None) is real:
            setattr(loaded, name, wrapper)

t0_spaces = []
group = Spectrum.t0_witness.func
def grouped(spec):
    t0_spaces.append(id(spec))
    return group(spec)
Spectrum.t0_witness.func = grouped

built = [0]
unmet = iseki.errors.HypothesisUnmet.__init__
def building(self, *args):
    built[0] += 1
    unmet(self, *args)
iseki.errors.HypothesisUnmet.__init__ = building

disconnection = {"without_witness": 0, "built_without_witness": 0}
check = CHECKS["disconnection"]
def checking(spec):
    before = built[0]
    fields = check(spec)
    if strong_disconnection_witness(spec) is None:
        disconnection["without_witness"] += 1
        disconnection["built_without_witness"] += built[0] > before
    return fields
CHECKS["disconnection"] = iseki.topology.check_disconnection = checking

maps = []
init = InducedMap.__init__
def constructing(self, *args, **kwargs):
    init(self, *args, **kwargs)
    maps.append(self)
InducedMap.__init__ = constructing

log = io.StringIO()
iseki.sweep.sweep(enumerate_n=[3], log=log)
print(json.dumps({
    "spaces": int(re.search(r"(\\d+) distinct spaces", log.getvalue()).group(1)),
    "t0_groupings": len(t0_spaces),
    "t0_spaces": len(set(t0_spaces)),
    **disconnection,
    **calls,
    "maps": len(maps),
    "images_stored": all(ind.image == sum(1 << i for i in set(ind.map)) for ind in maps),
}))
"""


def test_sweep_decides_each_fact_once():
    """In a fresh process, so every cache starts cold, the ``--enumerate
    3`` sweep groups the points by up-set for T0 once per distinct space;
    builds no HypothesisUnmet for a space without a strong disconnection;
    never re-parses its own masks through ``ideal_from_members`` or its
    own quotient maps through ``validate_homomorphism``; and stores each
    induced map's image as a field, made once with the map."""
    src = str(Path(iseki.sweep.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _DECISIONS],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["t0_groupings"] == counts["t0_spaces"] == counts["spaces"] > 0, counts
    assert counts["without_witness"] > 0 == counts["built_without_witness"], counts
    assert counts["ideal_from_members"] == counts["validate_homomorphism"] == 0, counts
    assert counts["maps"] > 0 and counts["images_stored"], counts


@pytest.mark.parametrize("k", [7, 9, 10])
def test_atoms_fail_only_on_their_atom_quotients(k):
    """The only universal failures of ``atoms7`` (10 elements, 137
    ideals), ``atoms9`` (12 elements, 523 ideals) and ``atoms10`` (13
    elements, 1,036 ideals) are the as-stated
    quotient claim on each atom ideal {0, a_i} under ``proper``: mod
    {0, a_i} the point {0, a_i, t} holds the kernel but is not a union of
    Bourne classes, and each witness names that point."""
    report = sweep(corpus=[atoms(k)], log=io.StringIO())
    failing = {name: e for name, e in report["tallies"].items() if e["failures"]}
    assert report["failures"] == k
    assert list(failing) == ["quotient_kernel_homeomorphism"]
    t = k + 1
    assert [
        (w["semiring"], w["ideal"], w["witness"])
        for w in failing["quotient_kernel_homeomorphism"]["witnesses"]
    ] == [
        (f"atoms{k}", [0, i], {"class": "proper", "continuity": None, "point": [0, i, t]})
        for i in range(1, k + 1)
    ]
