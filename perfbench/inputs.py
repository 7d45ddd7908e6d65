"""Seeded input documents for the sweep benchmark.

A workload is a list of semiring documents (the format ``iseki sweep``
reads) plus the orders the program enumerates itself.  The documents
come from ``catalog.json`` (the builtin catalog, recorded once) or from
B x B x B x B built here with bit operations.  Seed k relabels the
non-zero elements of every document with a permutation drawn from k, so
the program sees different tables with the same structure; seed 0 keeps
the recorded labels.  Ids are kept, so per-oracle tallies do not depend
on the seed while report bytes do.
"""

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = {
    "acceptance": {"documents": "catalog", "enumerate_n": [1, 2, 3]},
    "enumerate4": {"documents": "catalog", "enumerate_n": [4]},
    "boolean4": {"documents": "boolean4", "enumerate_n": []},
}


def catalog_documents():
    with open(HERE / "catalog.json", encoding="utf-8") as fh:
        return json.load(fh)


def boolean4_document():
    """B^4 on 4-bit vectors: addition is OR, multiplication is AND."""
    n = 16
    return {
        "id": "B^4",
        "n": n,
        "one": n - 1,
        "add": [[a | b for b in range(n)] for a in range(n)],
        "mul": [[a & b for b in range(n)] for a in range(n)],
    }


def relabel(doc, perm):
    """The same semiring with element x renamed perm[x]."""
    n = doc["n"]
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            add[perm[a]][perm[b]] = perm[doc["add"][a][b]]
            mul[perm[a]][perm[b]] = perm[doc["mul"][a][b]]
    return {"id": doc["id"], "n": n, "one": perm[doc["one"]], "add": add, "mul": mul}


def documents(workload, seed):
    """The workload's documents under seed ``seed``."""
    source = WORKLOADS[workload]["documents"]
    docs = catalog_documents() if source == "catalog" else [boolean4_document()]
    if seed == 0:
        return docs
    rng = random.Random(seed)
    out = []
    for doc in docs:
        rest = list(range(1, doc["n"]))
        rng.shuffle(rest)
        out.append(relabel(doc, [0] + rest))
    return out


def write_inputs(workload, seed, directory):
    """Write one JSON file per document; return the paths in corpus order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(documents(workload, seed)):
        path = directory / f"{i:03d}.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
