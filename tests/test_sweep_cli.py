import io
import json

import pytest

import iseki.sweep
from iseki.catalog import build_recipe
from iseki.cli import main
from iseki.errors import EmptyFamily
from iseki.semiring import validate_semiring
from iseki.serialize import canonical_json, emit
from iseki.sweep import sweep


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


def test_sweep_deterministic_across_runs():
    corpus = [build_recipe(("named", name)) for name in ("B", "C3", "Z4")]
    runs = [canonical_json(sweep(corpus=corpus, log=io.StringIO())) for _ in range(2)]
    assert runs[0] == runs[1]


def test_default_sweep_runs_in_process(monkeypatch):
    """With default arguments every topology instance report is built in
    this process: one call per (semiring, class)."""
    real = iseki.sweep.topology_instance_report
    calls = []

    def counting(s, cls):
        calls.append((s.id, cls))
        return real(s, cls)

    monkeypatch.setattr(iseki.sweep, "topology_instance_report", counting)
    corpus = [build_recipe(("named", name)) for name in ("B", "C3")]
    sweep(corpus=corpus, log=io.StringIO())
    assert calls == [(s.id, cls) for s in corpus for cls in iseki.sweep.DEFAULT_CLASSES]


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
        (["topology", "{missing}", "--checks", "t0,bogus"], "unknown checks: bogus"),
        (["sweep", "{missing}", "--enumerate", "0"], "--enumerate must be at least 1, got 0"),
    ],
    ids=[
        "topology-class",
        "spectrum-class",
        "export-dot-class",
        "morphisms-class",
        "ideals-missing-file",
        "topology-missing-file",
        "sweep-duplicate-id",
        "checks-before-input",
        "sweep-enumerate-zero",
    ],
)
def test_cli_bad_input_exit_code(tmp_path, capsys, argv, message):
    """Unusable input exits 2 with one line on stderr, before any work."""
    paths = {
        "B": _write(tmp_path, "B"),
        "missing": str(tmp_path / "missing.json"),
        "fake_B": str(tmp_path / "fake_B.json"),
    }
    emit(paths["fake_B"], validate_semiring([[0, 1], [1, 0]], [[0, 0], [0, 1]], 1, id="B"))
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


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["entries"]) >= 10


def test_sober_corollary_verdict_shared_by_sweep_and_cli(tmp_path, capsys, monkeypatch):
    """One oracle row decides the sweep tally and the topology exit code:
    a spectrum that is neither sober nor meets the generic-point criterion
    passes sober_agreement, and fails sober_corollary only for the
    classes the corollary covers."""
    real = iseki.sweep.check_sober

    def not_sober(s, spec):
        return {**real(s, spec), "sober": False, "criterion": False}

    monkeypatch.setattr(iseki.sweep, "check_sober", not_sober)
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


def test_radical_equality_verdict_shared_by_sweep_and_cli(tmp_path, capsys, monkeypatch):
    """The morphisms verb exits 1 on the same morphism_prime_radical_equality
    failure the sweep tallies, and only for the prime class."""
    real = iseki.sweep.check_density

    def mismatched(*args):
        rep = real(*args)
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
    real = iseki.sweep.check_sober

    def not_sober(s, spec):
        return {**real(s, spec), "sober": False}

    monkeypatch.setattr(iseki.sweep, "check_sober", not_sober)
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
