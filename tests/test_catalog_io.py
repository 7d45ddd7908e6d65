import io
import json

import pytest
from conftest import emit
from hypothesis import given, settings
from hypothesis import strategies as st

from iseki.catalog import build_recipe
from iseki.dot import export_dot
from iseki.errors import AxiomViolation, ParseError
from iseki.serialize import (
    canonical_json,
    ingest,
    semiring_from_json,
    semiring_to_json,
)
from iseki.sweep import sweep
from iseki.topology import spectrum


def _dumps(value):
    """The definition canonical_json must match byte for byte."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# Text with non-ASCII characters, quotes, backslashes and control characters.
_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f/\u00e9\u2028\U0001d11e')
    ),
    max_size=8,
)
_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_canonical_json_matches_json_dumps(value):
    assert canonical_json(value) == _dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [[], {}, (), [[]], {"x": [{}]}],
        ((), ((),)),
        [True, 1, False, 0, None, -1],
        {"one": 1, "true": True, "1": [1, True]},
        "",
        2**64 + 1,
    ],
)
def test_canonical_json_edge_cases(value):
    assert canonical_json(value) == _dumps(value)


@pytest.mark.parametrize(
    "enumerate_n", [(), (3,), (4,)], ids=["catalog", "enumerate3", "enumerate4"]
)
def test_canonical_json_matches_json_dumps_on_sweep_reports(enumerate_n):
    report = sweep(enumerate_n=list(enumerate_n), log=io.StringIO())
    assert canonical_json(report) == _dumps(report)


@pytest.mark.parametrize(
    "value",
    [1.5, {1, 2}, {1: "a"}, [{"a": [0.0]}]],
    ids=["float", "set", "int-key", "nested-float"],
)
def test_canonical_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def test_catalog_contents(catalog):
    ids = [entry.id for entry in catalog]
    assert len(ids) >= 10
    for required in ("trivial", "B", "Z2", "C3", "C4", "C5", "Z4", "BxB", "BxC3"):
        assert required in ids
    assert len(set(ids)) == len(ids)


def test_catalog_recipes_reproduce(catalog):
    for entry in catalog:
        rebuilt = build_recipe(entry.recipe)
        assert rebuilt.structure == entry.semiring.structure, entry.id
        assert rebuilt.id == entry.semiring.id


def test_catalog_includes_quotients(catalog):
    ids = [entry.id for entry in catalog]
    assert any(entry_id.startswith("Z4/") for entry_id in ids)
    assert any(entry_id.startswith("BxB/") for entry_id in ids)


def test_roundtrip_identity(tmp_path, boolean, catalog):
    for s in [boolean] + [e.semiring for e in catalog][:6]:
        path = tmp_path / f"{s.id.replace('/', '_')}.json"
        text = emit(path, s)
        loaded = ingest(path)
        assert loaded.structure == s.structure and loaded.id == s.id
        assert canonical_json(semiring_to_json(loaded)) == text


def test_parse_errors(tmp_path):
    bad_width = {"id": "x", "n": 2, "one": 1, "add": [[0, 1]], "mul": [[0, 0], [0, 1]]}
    with pytest.raises(ParseError) as err:
        semiring_from_json(bad_width)
    assert "add" in str(err.value)

    with pytest.raises(ParseError) as err:
        semiring_from_json({"id": "x", "n": 2, "add": [], "mul": []})
    assert "one" in str(err.value)

    with pytest.raises(ParseError) as err:
        semiring_from_json({"id": "x", "n": True, "one": 0, "add": [[0]], "mul": [[0]]})
    assert "'n' must be int" in str(err.value)

    with pytest.raises(ParseError) as err:
        semiring_from_json({"id": "x", "n": 1, "one": 0, "add": [[False]], "mul": [[0]]})
    assert "must be an integer" in str(err.value)

    path = tmp_path / "broken.json"
    path.write_text('{"id": "x",\n  broken\n}')
    with pytest.raises(ParseError) as err:
        ingest(path)
    assert "line 2" in str(err.value)


def test_axiom_violation_passthrough(tmp_path):
    doc = {
        "id": "bad",
        "n": 2,
        "one": 1,
        "add": [[0, 1], [1, 0]],
        "mul": [[0, 0], [0, 0]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(AxiomViolation):
        ingest(path)


def test_ingest_of_catalog_dump_reproduces_catalog(tmp_path, catalog):
    for entry in catalog:
        path = tmp_path / "entry.json"
        emit(path, entry.semiring)
        assert ingest(path).structure == entry.semiring.structure


def test_export_dot_examples(c3, bb, boolean):
    sierpinski = export_dot(spectrum(c3, "prime"))
    assert sierpinski.count("->") == 1
    assert 'p0 [label="{0}"]' in sierpinski
    two_points = export_dot(spectrum(bb, "maximal"))
    assert two_points.count("->") == 0
    single = export_dot(spectrum(boolean, "prime"))
    assert single.count("->") == 0 and "p0" in single


def test_export_dot_transitive_reduction(c4):
    # Chain of three proper ideals: only two covering edges, no shortcut.
    text = export_dot(spectrum(c4, "prime"))
    assert text.count("->") == 2
    assert "p0 -> p2" not in text
