"""JSON ingestion of semiring documents, and canonical JSON text for
semirings and reports.

The semiring document is the unit of persistence everywhere:

    {"id": str, "n": int, "one": int, "add": [[int]], "mul": [[int]]}

Tables are row-major; element 0 is always the additive identity.
Canonical text is json.dumps with sorted keys and two-space indentation,
so canonical_json(semiring_to_json(ingest(x))) is the identity on
canonical documents.
"""

import json

from .errors import ParseError
from .semiring import validate_semiring


def canonical_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
    return semiring_from_json(doc)
