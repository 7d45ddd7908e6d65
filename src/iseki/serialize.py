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
str keys (a subclass of str too, as ``json.dumps`` takes, on plain dicts
and rows alike), lists, tuples (written as lists), str, int, bool and
None.  Anything else, such as a float, a set or an int key, raises
TypeError.
``tests/test_catalog_io.py`` pins the text to ``json.dumps`` on random
values and on the sweep reports.

A sweep row is a ``Row``: a read-only dict that remembers its report body
and the names of its identity fields.  A Row made from a dict is its own
body; a Row made from a Row shares that row's body and names, with its
own identity values written over it.  Since no Row changes after it is
made, every Row holds its body's fields but for its identity values, and
is written from its body's text, encoded once per call, depth and
identity names.  Each identity string is quoted once per call.
"""

import json
from codecs import BOM_UTF8
from json.encoder import encode_basestring_ascii as _quote

from .errors import ParseError
from .semiring import validate_semiring


class Row(dict):
    """``fields`` with ``values`` written over its identity fields
    ``names``, a tuple.  A Row made from a dict is its own ``body``; a Row
    made from a Row shares that row's body and must keep its names.  A
    Row is read-only; a copy or a pickle of it is a plain dict."""

    __slots__ = ("body", "names")

    def __init__(self, fields, values, names):
        if type(fields) is Row and names != fields.names:
            raise ValueError(f"a row of a row keeps its names {fields.names!r}")
        super().__init__(fields)
        dict.update(self, zip(names, values, strict=True))
        self.body = fields.body if type(fields) is Row else self
        self.names = names

    def _read_only(self, *args, **kwargs):
        raise TypeError("a Row is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


def canonical_json(obj):
    chunks = []
    _encode(obj, "\n", chunks.append, {}, {})
    chunks.append("\n")
    return "".join(chunks)


def _encode(obj, newline, emit, rows, quoted):
    """Append the canonical text of ``obj`` to ``emit``; ``newline`` is the
    line break plus the indent of its first line; ``rows`` caches Rows'
    bodies and ``quoted`` their identity strings."""
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
    elif kind is Row and obj:
        pieces = _row_pieces(obj, newline, rows, quoted)
        emit(pieces[0])
        for i in range(1, len(pieces), 2):
            value = obj[pieces[i]]
            if type(value) is str:
                text = quoted.get(value)
                if text is None:
                    text = quoted[value] = _quote(value)
                emit(text)
            else:
                _encode(value, newline + "  ", emit, rows, quoted)
            emit(pieces[i + 1])
    elif kind is dict or kind is Row:
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            emit(sep + _quote_key(key) + ": ")
            _encode(obj[key], inner, emit, rows, quoted)
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
            _encode(item, inner, emit, rows, quoted)
            sep = "," + inner
        emit(newline + "]")
    else:
        raise TypeError(f"{kind.__name__} has no canonical JSON form")


def _quote_key(key):
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _quote(key)


def _row_pieces(row, newline, rows, quoted):
    """A row's text as fixed pieces around its identity fields' names, built
    from its body once per (body, depth, names)."""
    key = (id(row.body), newline, row.names)
    pieces = rows.get(key)
    if pieces is None:
        pieces = rows[key] = _body_pieces(row.body, row.names, newline, rows, quoted)
    return pieces


def _body_pieces(body, names, newline, rows, quoted):
    """The body's text cut at its fields ``names``, which alternate with
    the text between them."""
    inner = newline + "  "
    chunks, pieces = ["{" + inner], []
    for field in sorted(body):
        chunks.append(_quote_key(field) + ": ")
        if field in names:
            pieces += ("".join(chunks), field)
            chunks = []
        else:
            _encode(body[field], inner, chunks.append, rows, quoted)
        chunks.append("," + inner)
    chunks[-1] = newline + "}"
    return pieces + ["".join(chunks)]


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
    """Load and validate a semiring JSON document from a file.  A leading
    UTF-8 byte-order mark is skipped, as RFC 8259 section 8.1 allows, and
    counted in the byte offset of a decoding error."""
    with open(path, "rb") as fh:
        data = fh.read()
    bom = len(BOM_UTF8) if data.startswith(BOM_UTF8) else 0
    try:
        doc = json.loads(data[bom:].decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 at byte {bom + exc.start}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:
        # An integer literal over the interpreter's digit limit.
        raise ParseError(f"{path}: integer literal too long") from exc
    return semiring_from_json(doc)
