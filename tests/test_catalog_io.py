import copy
import io
import json
import pickle
from pathlib import Path

import pytest
from conftest import emit
from hypothesis import given, settings
from hypothesis import strategies as st

from iseki.catalog import builtin_catalog
from iseki.dot import export_dot
from iseki.enumeration import enumerate_semirings
from iseki.errors import AxiomViolation, ParseError
from iseki.serialize import (
    Row,
    canonical_json,
    ingest,
    semiring_from_json,
    semiring_to_json,
)
from iseki.sweep import sweep
from iseki.topology import CLASS_FLAGS, spectrum


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


# Short keys, so that identity keys often override body keys and sort
# before, between and after them; small values, since the rows nest.
_KEYS = st.text(alphabet="abcd", max_size=2)
_FIELDS = st.dictionaries(
    _KEYS,
    st.recursive(
        st.none() | st.booleans() | st.integers() | _TEXT,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
        max_leaves=6,
    ),
    max_size=5,
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_FIELDS, min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(min_value=0), _FIELDS), min_size=1, max_size=5),
)
def test_canonical_json_of_rows_matches_json_dumps(bodies, stamps):
    """Rows that share bodies encode like plain dicts: alone, in lists and
    in dicts, with one body's rows at several depths.  As in the sweep,
    the first stamp of a body makes a Row of it, its own body, with
    identity fields that override body keys or add keys of their own;
    each later stamp makes a Row of an earlier row of that body, writing
    its identity's values, or its own index, over that row's names."""
    rows, of_body = [], {}
    for j, (i, identity) in enumerate(stamps):
        earlier = of_body.setdefault(i % len(bodies), [])
        if earlier:
            row = earlier[i // len(bodies) % len(earlier)]
            earlier.append(Row(row, [identity.get(name, j) for name in row.names], row.names))
        else:
            earlier.append(Row(bodies[i % len(bodies)], identity.values(), tuple(identity)))
        rows.append(earlier[-1])
    value = {
        "rows": rows,
        "deeper": [{"rows": rows, "first": rows[0]}],
        **{f"row{i}": row for i, row in enumerate(rows)},
    }
    assert canonical_json(value) == _dumps(value)
    assert canonical_json(rows[0]) == _dumps(rows[0])


def _set_body_field(row):
    row["n"] = 5


def _set_identity_field(row):
    row["id"] = "other"


def _equal_but_not_identical(row):
    row["n"] = True  # == 1, but json.dumps writes true


def _delete_field(row):
    del row["n"]


def _delete_identity_field(row):
    # From the body too, so that a row of the body keeps the body's keys.
    del row["id"]
    row.body.pop("id", None)


def _add_field(row):
    row["extra"] = []


def _rename_identity_field(row):
    row["other"] = row.pop("id")


def _swap_values(row):
    # The fields keep their values' order, but "n" and "hom" trade values.
    n, hom, identity = row.pop("n"), row.pop("hom"), row.pop("id")
    row.update(hom=n, n=hom, id=identity)


def _change_body(row):
    row.body["n"] = 7


@pytest.mark.parametrize("changed_is_body", [True, False], ids=["body", "of-body"])
@pytest.mark.parametrize(
    "change",
    [
        _set_body_field,
        _set_identity_field,
        _equal_but_not_identical,
        _delete_field,
        _delete_identity_field,
        _add_field,
        _rename_identity_field,
        _swap_values,
        _change_body,
    ],
)
@pytest.mark.parametrize("first", [True, False], ids=["changed-first", "changed-last"])
def test_row_rejects_every_change(change, first, changed_is_body):
    """A Row is read-only, whether it is a body (made from a dict) or a
    Row made from the body: each change raises TypeError and leaves both
    rows as they were, so they still encode like ``json.dumps``, whether
    the row the change was tried on is written before or after the other
    row of its body."""
    body = Row({"n": 1, "hom": [0, 1], "id": "body"}, ["a"], ("id",))
    of_body = Row(body, ["b"], body.names)
    changed, unchanged = (body, of_body) if changed_is_body else (of_body, body)
    before = [dict(body), dict(of_body)]
    with pytest.raises(TypeError):
        change(changed)
    assert [body, of_body] == before
    value = [changed, unchanged] if first else [unchanged, changed]
    assert canonical_json(value) == _dumps(value)


def test_row_of_a_row_keeps_its_names():
    """A Row made from a Row shares its body, so it must stamp the same
    identity fields; a copy of a Row is a plain dict of its fields."""
    body = Row({"n": 1, "id": "body"}, ["a"], ("id",))
    with pytest.raises(ValueError):
        Row(body, [2], ("n",))
    with pytest.raises(ValueError):
        Row(body, ["b", 2], ("id", "n"))
    for copied in (copy.copy(body), copy.deepcopy(body), pickle.loads(pickle.dumps(body))):
        assert type(copied) is dict and copied == body


@pytest.mark.parametrize(
    "value",
    [1.5, {1, 2}, {1: "a"}, [{"a": [0.0]}]],
    ids=["float", "set", "int-key", "nested-float"],
)
def test_canonical_json_rejects_other_types(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def test_catalog_contents(catalog_semirings):
    ids = [s.id for s in catalog_semirings]
    assert len(ids) >= 10
    for required in ("trivial", "B", "Z2", "C3", "C4", "C5", "Z4", "BxB", "BxC3"):
        assert required in ids
    assert len(set(ids)) == len(ids)


def test_builtin_catalog_is_the_benchmark_catalog():
    """The benchmark's recorded catalog, ``perfbench/catalog.json``, is the
    builtin catalog, so the ``acceptance`` workload sweeps the corpus that
    ``iseki sweep`` does."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "catalog.json"
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert [semiring_to_json(s) for s in builtin_catalog()] == recorded


def test_catalog_includes_quotients(catalog_semirings):
    ids = [s.id for s in catalog_semirings]
    assert any(entry_id.startswith("Z4/") for entry_id in ids)
    assert any(entry_id.startswith("BxB/") for entry_id in ids)


def test_roundtrip_identity(tmp_path, boolean, catalog_semirings):
    for s in [boolean] + catalog_semirings[:6]:
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


def test_ingest_of_catalog_dump_reproduces_catalog(tmp_path, catalog_semirings):
    for s in catalog_semirings:
        path = tmp_path / "entry.json"
        emit(path, s)
        assert ingest(path).structure == s.structure


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


def _hasse_edges(spec):
    """The covers of the inclusion order by definition: i -> j when point
    i lies properly inside point j and no third point lies between."""
    points = spec.points
    edges = []
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i == j or (a & b) != a:
                continue
            covered = any(
                k not in (i, j) and (a & c) == a and (c & b) == c
                for k, c in enumerate(points)
            )
            if not covered:
                edges.append(f"  p{i} -> p{j};")
    return edges


def test_export_dot_edges_are_the_hasse_covers(catalog_semirings):
    """On the catalog and every labeled semiring of order <= 3, under every
    class, the edges are the covers by definition, in the same order."""
    enumerated = [s for n in range(1, 4) for s in enumerate_semirings(n)]
    for s in [*catalog_semirings, *enumerated]:
        for cls in CLASS_FLAGS:
            spec = spectrum(s, cls)
            edges = [line for line in export_dot(spec).splitlines() if "->" in line]
            assert edges == _hasse_edges(spec), (s.id, cls)


class _Key(str):
    pass


@pytest.mark.parametrize("wrap", [dict, lambda d: Row(d, (), ())], ids=["dict", "row"])
def test_canonical_json_key_rule_is_the_same_for_dicts_and_rows(wrap):
    """A key of a str subclass is written as ``json.dumps`` writes it, and
    an int key raises, whether the dict is plain or a sweep row."""
    value = wrap({_Key("b"): 1, "a": [2]})
    assert canonical_json(value) == _dumps(value)
    with pytest.raises(TypeError):
        canonical_json(wrap({1: "a"}))
