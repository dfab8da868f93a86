"""One benchmark operation in its own process.

    worker.py [--trace FILE --op-id N] cli ARGS...
        run the superspin command line (`superspin ARGS...`) in this process;
        with --trace, under the call tracer, writing the trace to FILE
    worker.py [--trace FILE --op-id N] classify SHAPE [tensor]
        print {"type": ..., "restriction": [...]} as one JSON line: the
        empirical M/Q type of the shape's irreducible module, and (plain models
        only) the shapes of the summands of its restriction one rank down
    worker.py check FILE
        FILE lists finished operations (label, stdout and output file); print
        one JSON list with null or an error for each.  A stored model is loaded
        with the library reader, and its a-vectors must equal the spectrum
        vectors of the shape's standard shifted tableaux.

The package is imported from PYTHONPATH, which the benchmark points at the
checkout's `src` directory.
"""

from __future__ import annotations

import json
import math
import sys


def classify(shape_text: str, tensor: bool) -> dict:
    from superspin import seminormal
    from superspin.shiftedcomb import StrictPartition

    shape = StrictPartition.parse(shape_text)
    out = {"type": seminormal.empirical_type(shape, tensor=tensor), "restriction": None}
    if not tensor:
        branches = seminormal.restrict_and_branch(seminormal.build_rep_plain(shape))
        out["restriction"] = sorted(list(b["shape"].parts) for b in branches)
    return out


def expected_type(shape, tensor: bool) -> str:
    """M/Q type of the irreducible.  Tensoring with the Clifford superalgebra on
    n generators, which has type Q for odd n, swaps M and Q when n is odd."""
    from superspin import shiftedcomb

    plain = shiftedcomb.conjectured_type(shape)
    if tensor and shape.n % 2:
        return "Q" if plain == "M" else "M"
    return plain


def check_model(shape, tensor: bool, path: str) -> str | None:
    from superspin import seminormal, shiftedcomb

    with open(path, encoding="utf-8") as fh:
        rep = seminormal.GradedRep.from_json(json.load(fh))
    if rep.shape != shape or rep.has_clifford != tensor:
        return f"stored model is {rep.algebra} {rep.shape}"
    want = sorted(
        tuple(shiftedcomb.spectrum_vector(t).a) for t in shiftedcomb.standard_tableaux(shape)
    )
    got = [tuple(a) for a in seminormal.spectrum_of(rep)]
    return None if got == want else f"a-vectors {got} != tableau spectra {want}"


def check(item: dict) -> str | None:
    """Check one operation's result without depending on the output format
    beyond a report's top-level fields; None when correct."""
    from superspin import shiftedcomb

    head, *args = item["label"].split()
    if head == "build-rep":
        shape = shiftedcomb.StrictPartition.parse(args[0])
        return check_model(shape, "tensor" in args, item["out"])
    if head in ("verify", "gz"):
        return None  # exit code 0: every relation, or the maximality check, held
    with open(item["stdout"], encoding="utf-8") as fh:
        data = json.load(fh)
    if head == "classify":
        shape = shiftedcomb.StrictPartition.parse(args[0])
        tensor = args[1:] == ["tensor"]
        want = expected_type(shape, tensor)
        if data["type"] != want:
            return f"type {data['type']} != {want}"
        covers = None if tensor else sorted(list(c.parts) for c in shape.covers())
        if data["restriction"] != covers:
            return f"restriction {data['restriction']} != covers {covers}"
        return None
    if head == "decompose-regular":
        n = int(args[1])
        dim = math.factorial(n) * (2**n if args[0] == "CA" else 1)
        got_dim = sum(b["dimension"] for b in data["blocks"])
        if got_dim != dim:
            return f"block dimensions sum to {got_dim}, not {dim}"
        parts = sorted(tuple(b["partition"]) for b in data["blocks"])
        want = sorted(p.parts for p in shiftedcomb.strict_partitions(n))
        return None if parts == want else f"block partitions {parts} != {want}"
    if head == "supercenter":
        want = len(shiftedcomb.strict_partitions(int(args[0])))
        got = data["dimension"]
        return None if got == want else f"supercenter dimension {got} != {want}"
    return f"no check for {item['label']}"


def check_all(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        items = json.load(fh)
    verdicts = []
    for item in items:
        try:
            verdicts.append(check(item))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            verdicts.append(f"{type(exc).__name__}: {exc}")
    return verdicts


def main(argv: list[str]) -> int:
    if argv and argv[0] == "check":
        print(json.dumps(check_all(argv[1])))
        return 0

    trace_path, op_id = None, 0
    while argv and argv[0] in ("--trace", "--op-id"):
        if argv[0] == "--trace":
            trace_path = argv[1]
        else:
            op_id = int(argv[1])
        argv = argv[2:]

    tracer = None
    if trace_path:
        import tracer as tracing

        tracer = tracing.install(op_id)
    try:
        if argv[0] == "cli":
            from superspin import cli

            return cli.main(argv[1:])
        if argv[0] == "classify":
            print(json.dumps(classify(argv[1], argv[2:] == ["tensor"]), sort_keys=True))
            return 0
        raise SystemExit(f"unknown worker mode {argv[0]!r}")
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
