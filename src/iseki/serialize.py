"""JSON ingestion of semiring documents, and canonical JSON text for
semirings and reports.

The semiring document is the unit of persistence everywhere:

    {"id": str, "n": int, "one": int, "add": [[int]], "mul": [[int]]}

Tables are row-major; element 0 is always the additive identity.

Canonical text is exactly ``json.dumps(obj, indent=2, sort_keys=True)``
plus a newline, so canonical_json(semiring_to_json(ingest(x))) is the
identity on canonical documents.  It is written in one direct pass: with
``indent`` set the stdlib skips its C encoder and runs a chain of
pure-Python generators, about twice as slow on a sweep report.  The
encoder accepts only what reports and semiring documents hold: dicts with
str keys, lists, tuples (written as lists), str, int, bool and None.
Anything else, such as a float, a set or an int key, raises TypeError.
``tests/test_catalog_io.py`` pins the text to ``json.dumps`` on random
values and on the sweep reports.
"""

import json
from json.encoder import encode_basestring_ascii as _quote

from .errors import ParseError
from .semiring import validate_semiring


def canonical_json(obj):
    chunks = []
    _encode(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _encode(obj, newline, emit):
    """Append the canonical text of ``obj`` to ``emit``; ``newline`` is
    the line break plus the indent of the line ``obj`` starts on."""
    kind = type(obj)
    if kind is str:
        emit(_quote(obj))
    elif kind is int:
        emit(int.__repr__(obj))
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif obj is None:
        emit("null")
    elif kind is dict:
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            emit(sep + _quote(key) + ": ")
            _encode(obj[key], inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            emit(sep)
            _encode(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    else:
        raise TypeError(f"{kind.__name__} has no canonical JSON form")


def semiring_to_json(s):
    return {
        "id": s.id,
        "n": s.n,
        "one": s.one,
        "add": [list(row) for row in s.add],
        "mul": [list(row) for row in s.mul],
    }


def semiring_from_json(doc):
    if not isinstance(doc, dict):
        raise ParseError("semiring document must be a JSON object")
    for key, kind in (("id", str), ("n", int), ("one", int), ("add", list), ("mul", list)):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
        # Exact types: JSON true/false load as bool, a subclass of int.
        if type(doc[key]) is not kind:
            raise ParseError(f"field {key!r} must be {kind.__name__}")
    n = doc["n"]
    for key in ("add", "mul"):
        table = doc[key]
        if len(table) != n:
            raise ParseError(f"field {key!r} must have {n} rows, got {len(table)}")
        for r, row in enumerate(table):
            if not isinstance(row, list) or len(row) != n:
                raise ParseError(f"field {key!r} row {r} must have {n} entries")
            for c, v in enumerate(row):
                if type(v) is not int:
                    raise ParseError(f"field {key!r}[{r}][{c}] must be an integer")
    return validate_semiring(doc["add"], doc["mul"], doc["one"], id=doc["id"])


def ingest(path):
    """Load and validate a semiring JSON document from a file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 at byte {exc.start}") from exc
        except RecursionError as exc:
            raise ParseError(f"{path}: JSON nested too deeply") from exc
    return semiring_from_json(doc)
