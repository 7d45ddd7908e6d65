"""Command-line surface.

Verbs: validate, ideals, spectrum, topology, morphisms, sweep,
export-dot.  Reports are JSON on stdout (``--out`` writes a file
instead); exit code 0 means every universal oracle passed, 1 means some
oracle failed, 2 means the input was unusable.
"""

import argparse
import json
import sys

from .catalog import builtin_catalog
from .dot import export_dot
from .errors import AxiomViolation, IsekiError, ParseError
from .ideals import classified_ideals, mask_members
from .morphisms import enumerate_homomorphisms
from .serialize import canonical_json, ingest, semiring_to_json
from .sweep import (
    DEFAULT_CLASSES,
    MORPHISM,
    TOPOLOGY,
    morphism_report,
    sweep,
    topology_report_by_check,
    universal_oracles_hold,
)
from .topology import CHECKS, parse_class, spectrum


def _emit(args, payload):
    text = canonical_json(payload)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args):
    try:
        s = ingest(args.file)
    except AxiomViolation as exc:
        _emit(args, {"valid": False, "axiom": exc.axiom, "witness": list(exc.witness)})
        return 1
    _emit(args, {"valid": True, "id": s.id, "n": s.n, "one": s.one})
    return 0


def _cmd_ideals(args):
    s = ingest(args.file)
    rows = []
    for ideal, classification in classified_ideals(s):
        rows.append({"members": mask_members(s, ideal), **classification.to_json()})
    _emit(args, {"semiring": s.id, "n": s.n, "ideals": rows})
    return 0


def _cmd_spectrum(args):
    s = ingest(args.file)
    spec = spectrum(s, args.cls)
    _emit(args, {"semiring": s.id, "class": args.cls, **spec.to_json()})
    return 0


def _cmd_topology(args):
    wanted = (
        [c.strip() for c in args.checks.split(",") if c.strip()]
        if args.checks
        else list(CHECKS)
    )
    unknown = [c for c in wanted if c not in CHECKS]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
        return 2
    s = ingest(args.file)
    rep, groups = topology_report_by_check(s, args.cls)
    out = {
        key: rep[key] for key in ("semiring", "class", "points", "closed_set_count")
    }
    # Print the report's own values, so the output and the exit code agree.
    for group in wanted:
        out.update((key, rep[key]) for key in groups[group])
    _emit(args, out)
    return 0 if universal_oracles_hold(TOPOLOGY, [rep]) else 1


def _cmd_morphisms(args):
    src = ingest(args.src)
    dst = ingest(args.dst)
    reports = [
        morphism_report(src, dst, hom, args.cls)
        for hom in enumerate_homomorphisms(src, dst)
    ]
    _emit(
        args, {"source": src.id, "target": dst.id, "class": args.cls, "homs": reports}
    )
    return 0 if universal_oracles_hold(MORPHISM, reports) else 1


def _cmd_sweep(args):
    if args.enumerate is not None and args.enumerate < 1:
        print(f"--enumerate must be at least 1, got {args.enumerate}", file=sys.stderr)
        return 2
    corpus = None
    if args.files:
        corpus = [ingest(path) for path in args.files]
    report = sweep(
        corpus=corpus,
        classes=args.classes,
        enumerate_n=[args.enumerate] if args.enumerate is not None else (),
    )
    _emit(args, report)
    for name, entry in report["tallies"].items():
        if entry["failures"]:
            print(
                f"failed: {name}: {entry['failures']} of {entry['instances']} "
                f"instances; first witness {json.dumps(entry['witnesses'][0], sort_keys=True)}",
                file=sys.stderr,
            )
    return 0 if report["failures"] == 0 else 1


def _cmd_export_dot(args):
    s = ingest(args.file)
    text = export_dot(spectrum(s, args.cls))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_catalog(args):
    entries = builtin_catalog()
    _emit(
        args,
        {
            "entries": [
                {"id": e.id, "n": e.semiring.n, "semiring": semiring_to_json(e.semiring)}
                for e in entries
            ]
        },
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="iseki",
        description="Finite semiring spectra under the coarse lower topology: "
        "construct, check, and sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a semiring JSON document")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("ideals", help="list and classify every proper ideal")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_ideals)

    p = sub.add_parser("spectrum", help="points of one ideal class")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", default="prime")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("topology", help="full topology report for one spectrum")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", default="prime")
    p.add_argument(
        "--checks",
        default="",
        help="comma list: " + ",".join(CHECKS),
    )
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_topology)

    p = sub.add_parser("morphisms", help="homomorphisms and induced maps")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--class", dest="cls", default="prime")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_morphisms)

    p = sub.add_parser("sweep", help="run every oracle over a corpus")
    p.add_argument("files", nargs="*", help="semiring JSON files (default: builtin catalog)")
    p.add_argument("--enumerate", type=int, default=None, metavar="N")
    p.add_argument("--classes", nargs="+", default=None, choices=DEFAULT_CLASSES)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("export-dot", help="Hasse diagram of the specialization order")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", default="prime")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_export_dot)

    p = sub.add_parser("catalog", help="dump the builtin corpus")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "cls"):
            # Reports carry, and the oracle rows gate on, the canonical name.
            args.cls = parse_class(args.cls)
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (IsekiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
