import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import emit

import iseki.sweep
import iseki.topology
from iseki.catalog import build_recipe, builtin_catalog
from iseki.cli import main
from iseki.enumeration import enumerate_semirings
from iseki.errors import EmptyFamily, ParseError
from iseki.ideals import _proper_ideal_masks
from iseki.morphisms import enumerate_homomorphisms
from iseki.semiring import bourne_quotient, validate_semiring
from iseki.serialize import canonical_json
from iseki.sweep import (
    IDEAL_LATTICE,
    MORPHISM,
    QUOTIENT,
    QUOTIENT_CLASSES,
    TOPOLOGY,
    ideal_lattice_report,
    morphism_report,
    quotient_report,
    sweep,
    topology_instance_report,
    verdicts,
)


@pytest.fixture(scope="module")
def small_report():
    corpus = [build_recipe(("named", name)) for name in ("B", "Z2", "C3", "Z4")]
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
            corpus=[build_recipe(("named", "B"))],
            classes=["fg(1)", "fg:1"],
            log=io.StringIO(),
        )


def test_sweep_reports_canonical_class_names():
    """A class is reported, and the oracle gates read it, by its canonical
    name: ``" prime"`` is the prime class, so sober_corollary applies."""
    report = sweep(
        corpus=[build_recipe(("named", "C3"))], classes=[" prime"], log=io.StringIO()
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

    semirings = [e.semiring for e in builtin_catalog()]
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
    corpus = [build_recipe(("named", name)) for name in ("B", "C3", "Z4")]
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
    corpus = [build_recipe(("named", name)) for name in ("B", "C3")]
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
    semirings = [e.semiring for e in builtin_catalog()]
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
        e.semiring.structure
        for e in builtin_catalog()
        if e.semiring.n <= iseki.sweep.MORPHISM_ORDER_CAP
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


def _sections(report):
    """Each report kind and the sweep's reports of that kind, in order."""
    return {
        TOPOLOGY: report["topology"],
        IDEAL_LATTICE: report["ideal_checks"],
        MORPHISM: report["morphisms"]["reports"],
        QUOTIENT: report["quotients"]["reports"],
    }


def test_oracle_verdicts_read_no_identity_field():
    """The sweep decides each oracle once per distinct report body and
    replays the verdict for every instance, so an oracle may read body
    fields and the class but no id.  On every report of the
    ``--enumerate 3`` sweep, replacing the identity fields with sentinels
    leaves every oracle's applies/holds outcome and failure detail
    unchanged."""
    identity = ("semiring", "source", "target", "quotient", "hom")
    report = sweep(enumerate_n=[3], log=io.StringIO())
    for kind, reports in _sections(report).items():
        assert reports, kind
        for rep in reports:
            masked = {**rep, **{field: object() for field in identity if field in rep}}
            assert verdicts(kind, masked) == verdicts(kind, rep), (kind, rep)


def test_same_tables_under_two_ids_keep_their_own_ids(tmp_path, capsys):
    """Two documents with the same tables share every cached analysis (a
    semiring's equality is its tables), yet ``iseki spectrum`` prints each
    one's own id, and the sweep's reports for the pair differ only in
    their id fields."""
    b = build_recipe(("named", "B"))
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
    for kind, reports in _sections(report).items():
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
    (): "d816d0ed6929b20b017aebad038630ea5a43cbb07c7b3589ba51be1a5fe997b3",
    (3,): "ff02c3642d317e17bdf3db6d03010c8edbf30d3541320b0d6d2474d17c87b471",
    (4,): "8889b35961cd7a4a9521fcadd4e676228202ed060341cd6d8cd3a42863f08586",
}


@pytest.mark.parametrize(
    "enumerate_n", list(REPORT_DIGESTS), ids=["catalog", "enumerate3", "enumerate4"]
)
def test_report_bytes_match_pinned_digest(enumerate_n):
    """The report bytes of ``iseki sweep`` and ``--enumerate 3`` / ``4`` are
    pinned, so a refactor that changes any report field fails here."""
    text = canonical_json(sweep(enumerate_n=list(enumerate_n), log=io.StringIO()))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == REPORT_DIGESTS[enumerate_n]


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


def test_sweep_report_shape(small_report):
    for key in (
        "corpus",
        "classes",
        "topology",
        "ideal_checks",
        "morphisms",
        "quotients",
        "tallies",
        "observations",
        "failures",
    ):
        assert key in small_report
    instance = small_report["topology"][0]
    for key in (
        "points",
        "closed_set_count",
        "t0",
        "t1",
        "t1_predicate",
        "sober",
        "sober_criterion",
        "connected",
        "disconnection_witness",
        "idempotent",
        "upset_laws",
    ):
        assert key in instance


def _write(tmp_path, name):
    path = tmp_path / f"{name}.json"
    emit(path, build_recipe(("named", name)))
    return str(path)


def test_cli_validate(tmp_path, capsys):
    path = _write(tmp_path, "B")
    assert main(["validate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True

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
    assert "parse error" in capsys.readouterr().err


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
        (["topology", "{missing}", "--checks", "t0,bogus"], "unknown checks: bogus"),
        (["sweep", "{missing}", "--enumerate", "0"], "--enumerate must be at least 1, got 0"),
        (["sweep", "{B}", "--enumerate", "5"], "enumeration capped at n <= 4 (asked for 5)"),
        (["validate", "{not_utf8}"], "not valid UTF-8 at byte 0"),
        (["validate", "{bool_one}"], "field 'one' must be int"),
        (["validate", "{empty_tables}"], "element count must be at least 1"),
        (["topology", "{B}", "--class", "fg(-1)"], "generator bound of at least 0"),
        (["validate", "{deep}"], "JSON nested too deeply"),
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
        "checks-before-input",
        "sweep-enumerate-zero",
        "sweep-enumerate-above-cap",
        "validate-not-utf8",
        "validate-bool-one",
        "validate-empty-tables",
        "topology-negative-fg",
        "validate-deep-nesting",
    ],
)
def test_cli_bad_input_exit_code(tmp_path, capsys, argv, message):
    """Unusable input exits 2 with one line on stderr, before any work."""
    paths = {
        "B": _write(tmp_path, "B"),
        "missing": str(tmp_path / "missing.json"),
        "fake_B": str(tmp_path / "fake_B.json"),
        "not_utf8": tmp_path / "not_utf8.json",
        "bool_one": tmp_path / "bool_one.json",
        "empty_tables": tmp_path / "empty_tables.json",
        "deep": tmp_path / "deep.json",
    }
    emit(paths["fake_B"], validate_semiring([[0, 1], [1, 0]], [[0, 0], [0, 1]], 1, id="B"))
    paths["not_utf8"].write_bytes(b"\xff\xfe")
    paths["bool_one"].write_text(
        json.dumps({"id": "B", "n": 2, "one": True, "add": [[0, 1], [1, 1]], "mul": [[0, 0], [0, 1]]})
    )
    paths["empty_tables"].write_text(
        json.dumps({"id": "E", "n": 0, "one": 0, "add": [], "mul": []})
    )
    paths["deep"].write_text("[" * 200_000)
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


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
    assert out["t0"] is True and out["t1"] is False
    assert "connected" not in out

    assert main(["topology", path, "--class", "prime"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["connected"] is True

    assert main(["topology", path, "--class", "prime", "--checks", "bogus"]) == 2


def test_cli_morphisms(tmp_path, capsys):
    src = _write(tmp_path, "Z4")
    dst = _write(tmp_path, "Z2")
    assert main(["morphisms", src, dst, "--class", "prime"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["homs"]) == 1
    assert out["homs"][0]["hom"] == [0, 1, 0, 1]


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
    a spectrum that is neither sober nor meets the generic-point criterion
    passes sober_agreement, and fails sober_corollary only for the
    classes the corollary covers."""
    real = iseki.topology.CHECKS["sober"]

    def not_sober(spec):
        return {**real(spec), "sober": False, "sober_criterion": False}

    monkeypatch.setitem(iseki.topology.CHECKS, "sober", not_sober)
    report = sweep(corpus=[build_recipe(("named", "C3"))], log=io.StringIO())
    assert report["tallies"]["sober_agreement"]["failures"] == 0
    assert report["tallies"]["sober_corollary"]["witnesses"] == [
        {"semiring": "C3", "class": cls}
        for cls in ("proper", "prime", "strongly-irreducible")
    ]
    path = _write(tmp_path, "C3")
    assert main(["topology", path, "--class", "prime"]) == 1
    assert main(["topology", path, "--class", " prime "]) == 1
    assert main(["topology", path, "--class", "maximal"]) == 0


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
    failure the sweep tallies, and only for the prime class."""
    real = iseki.sweep.check_density

    def mismatched(ind):
        rep = real(ind)
        if "radical_equality_matches_density" in rep:
            rep["radical_equality_matches_density"] = False
        return rep

    monkeypatch.setattr(iseki.sweep, "check_density", mismatched)
    corpus = [build_recipe(("named", name)) for name in ("C3", "B")]
    report = sweep(corpus=corpus, log=io.StringIO())
    tally = report["tallies"]["morphism_prime_radical_equality"]
    assert tally["failures"] == tally["instances"] > 0
    assert {"source": "C3", "target": "B", "hom": [0, 1, 1]} in tally["witnesses"]
    src, dst = _write(tmp_path, "C3"), _write(tmp_path, "B")
    assert main(["morphisms", src, dst, "--class", "prime"]) == 1
    assert main(["morphisms", src, dst, "--class", " prime "]) == 1
    assert main(["morphisms", src, dst, "--class", "maximal"]) == 0


def test_sweep_failure_summary_on_stderr(tmp_path, capsys, monkeypatch):
    """A failing sweep prints one stderr line per failing universal oracle,
    with its failure count and first witness; the report is unchanged."""
    real = iseki.topology.CHECKS["sober"]

    def not_sober(spec):
        return {**real(spec), "sober": False}

    monkeypatch.setitem(iseki.topology.CHECKS, "sober", not_sober)
    out_path = tmp_path / "report.json"
    path = _write(tmp_path, "C3")
    assert main(["sweep", path, "--out", str(out_path)]) == 1
    corpus = [build_recipe(("named", "C3"))]
    report = sweep(corpus=corpus, log=io.StringIO())
    assert out_path.read_text() == canonical_json(report)
    failing = [name for name, entry in report["tallies"].items() if entry["failures"]]
    assert failing == ["sober_agreement", "sober_corollary"]
    summary = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("failed: ")
    ]
    assert summary == [
        "failed: sober_agreement: 8 of 8 instances; first witness "
        '{"class": "proper", "semiring": "C3"}',
        "failed: sober_corollary: 3 of 3 instances; first witness "
        '{"class": "proper", "semiring": "C3"}',
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
