"""Command-line front end: enumeration, builds, verification, reports.

Exit codes: 0 success, 1 a verification or acceptance check failed, 2 invalid
input or usage (an unwritable --out file or a closed stdout included).  Every
emitted JSON document carries a "schema" field and identical invocations
produce byte-identical output.  A report is for people, written as
json.dumps(sort_keys=True, indent=2); a model file is data for programs,
written compactly on one line.  `build-rep` writes a model in its factored
form, "superspin/2" (`GradedRep.to_json`), as json.dumps(sort_keys=True,
separators=(",", ":")); every other document is "superspin/1".  `verify` reads
a superspin/2 model file in any JSON layout, the indented one of earlier
versions included, and refuses any other schema (`GradedRep.read`).
`decompose-regular` writes each block's central idempotent as an element of
the algebra (`SpinElement.to_json`), not as a matrix.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import checks, linalg, seminormal, shiftedcomb, spinalg
from .shiftedcomb import StrictPartition

SCHEMA = "superspin/1"


class UsageError(ValueError):
    pass


def _parse_partition(text: str) -> StrictPartition:
    try:
        return StrictPartition.parse(text)
    except ValueError as exc:
        raise UsageError(f"invalid strict partition {text!r}: {exc}") from exc


@contextlib.contextmanager
def _output(args):
    """The stream to write to: the --out file, else stdout."""
    path = getattr(args, "out", None)
    try:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                yield fh
        else:
            yield sys.stdout
            sys.stdout.flush()  # a closed pipe fails here, not at exit
    except OSError as exc:
        if not path:
            # a closed pipe: the interpreter's final flush goes to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise UsageError(f"cannot write {path or 'stdout'}: {exc.strerror or exc}") from exc


def _emit(payload, args, compact: bool = False) -> None:
    """Write json.dumps(payload, sort_keys=True, indent=2), or with compact
    json.dumps(payload, sort_keys=True, separators=(",", ":")), and a newline,
    in pieces: one large write to a pipe that its reader closes can end short
    without an error, and a closed stdout would then exit 0."""
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    with _output(args) as fh:
        fh.writelines(json.JSONEncoder(sort_keys=True, **layout).iterencode(payload))
        fh.write("\n")


def _emit_text(text: str, args) -> None:
    with _output(args) as fh:
        fh.write(text)


def cmd_strict_partitions(args) -> int:
    parts = shiftedcomb.strict_partitions(args.n)
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "n": args.n,
                "partitions": [list(p.parts) for p in parts],
            },
            args,
        )
    else:
        _emit_text("".join(f"{p}\n" for p in parts), args)
    return 0


def cmd_tableaux(args) -> int:
    shape = _parse_partition(args.partition)
    tabs = shiftedcomb.standard_tableaux(shape)
    if args.json:
        _emit(
            {
                "schema": SCHEMA,
                "shape": list(shape.parts),
                "tableaux": [[list(r) for r in t.rows] for t in tabs],
            },
            args,
        )
    else:
        _emit_text("".join(f"{t}\n" for t in tabs), args)
    return 0


def cmd_spectrum(args) -> int:
    shape = _parse_partition(args.partition)
    tabs = shiftedcomb.standard_tableaux(shape)
    specs = [shiftedcomb.spectrum_vector(t) for t in tabs]
    payload = {
        "schema": SCHEMA,
        "shape": list(shape.parts),
        "spectra": [s.to_json() for s in specs],
    }
    if args.oracle:
        rep = seminormal.build_rep_plain(shape)
        got = seminormal.spectrum_of(rep)
        want = sorted(s.a for s in specs)
        payload["oracle_checked"] = got == want
        if got != want:
            _emit(payload, args)
            return 1
    _emit(payload, args)
    return 0


def cmd_branching_graph(args) -> int:
    if args.oracle:
        g = seminormal.branching_graph_from_reps(args.n)
    else:
        g = shiftedcomb.schur_branching_graph(args.n)
    g.validate()
    rc = 0
    if args.oracle:
        ref = shiftedcomb.schur_branching_graph(args.n)
        if (
            set(ref.vertices) != set(g.vertices)
            or ref.orbit_edge_support() != g.orbit_edge_support()
        ):
            rc = 1
    if args.dot:
        _emit_text(g.to_dot(), args)
    else:
        _emit(g.to_json(), args)
    return rc


def cmd_build_rep(args) -> int:
    shape, tensor = _parse_partition(args.partition), args.algebra == "tensor"
    builder = seminormal.build_rep_clifford_tensor if tensor else seminormal.build_rep_plain
    _emit(builder(shape).to_json(), args, compact=True)
    return 0


def cmd_verify(args) -> int:
    try:
        rep = seminormal.GradedRep.read(args.file)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        sys.stderr.write(f"cannot load representation: {exc}\n")
        return 2
    report = seminormal.verify_relations(rep)
    _emit({"schema": SCHEMA, "report": report}, args)
    return 0 if all(r["status"] == "pass" for r in report) else 1


def cmd_supercenter(args) -> int:
    basis = spinalg.supercenter_basis(args.n)
    _emit(
        {
            "schema": SCHEMA,
            "n": args.n,
            "dimension": len(basis),
            "basis": [e.to_json() for e in basis],
        },
        args,
    )
    return 0


def cmd_gz(args) -> int:
    out = spinalg.gz_algebras(args.n)
    _emit(
        {
            "schema": SCHEMA,
            "n": args.n,
            "gz_dim": len(out["gz_basis"]),
            "sgz_dim": len(out["sgz_basis"]),
            "sz_dim": len(out["sz_basis"]),
            "maximality_flag": out["maximality_flag"],
            "sgz_equals_pi_algebra": out["sgz_equals_pi_algebra"],
            "sz_equals_pi2_algebra": out["sz_equals_pi2_algebra"],
            "inclusions_ok": out["inclusions_ok"],
        },
        args,
    )
    return 0 if out["maximality_flag"] else 1


def cmd_decompose_regular(args) -> int:
    report = seminormal.regular_decompose(args.algebra, args.n)
    _emit(report.to_json(), args)
    return 0


def cmd_check_all(args) -> int:
    results = checks.check_all(args.max_n, negative_control=args.negative_control)
    if args.json:
        _emit({"schema": SCHEMA, "max_n": args.max_n, "results": results}, args)
    else:
        lines = []
        for r in results:
            lines.append(
                f"[{r['status'].upper():4s}] criterion {r['criterion']}: "
                f"{r['description']}\n"
            )
            if r["details"]:
                lines.append(f"       {r['details']}\n")
        _emit_text("".join(lines), args)
    return 0 if all(r["status"] == "pass" for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superspin",
        description="Exact spin symmetric group algebras and seminormal forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", metavar="FILE", help="write output to FILE")
        return p

    p = add("strict-partitions", cmd_strict_partitions, help="enumerate strict partitions")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")

    p = add("tableaux", cmd_tableaux, help="standard shifted tableaux of a shape")
    p.add_argument("partition", help="strict partition, e.g. 3,1")
    p.add_argument("--json", action="store_true")

    p = add("spectrum", cmd_spectrum, help="b/a spectrum vectors of a shape")
    p.add_argument("partition")
    p.add_argument("--oracle", action="store_true", help="cross-check against the built model")

    p = add("branching-graph", cmd_branching_graph, help="graded branching graph")
    p.add_argument("n", type=int)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("--oracle", action="store_true", help="compute from representations and compare")

    p = add("build-rep", cmd_build_rep, help="build a seminormal model")
    p.add_argument("partition")
    p.add_argument("--algebra", choices=["plain", "tensor"], default="plain")

    p = add("verify", cmd_verify, help="verify relations of a stored model")
    p.add_argument("file")

    p = add("supercenter", cmd_supercenter, help="supercenter basis of the spin algebra")
    p.add_argument("n", type=int)

    p = add("gz", cmd_gz, help="Gelfand-Tsetlin algebras and maximality")
    p.add_argument("n", type=int)

    p = add("decompose-regular", cmd_decompose_regular, help="regular representation block report")
    p.add_argument("algebra", choices=["A", "CA"], help="A = spin algebra, CA = Clifford tensor")
    p.add_argument("n", type=int)

    p = add("check-all", cmd_check_all, help="run every acceptance criterion")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--negative-control",
        action="store_true",
        help="inject a sign flip and demonstrate that verification fails",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except seminormal.RelationError as exc:
        sys.stderr.write(f"build failed verification: {exc}\n")
        return 1
    except linalg.CheckFailed as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
