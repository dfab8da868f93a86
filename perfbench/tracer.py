"""Call tracing of one superspin process, installed from outside the package.

`install(op_id)` wraps the public functions and methods listed in TARGETS.
Each wrapped call adds to per-name aggregates: call count, self time (its
duration minus the time of nested wrapped calls) and inclusive time.  Calls at
layer boundaries ("span" targets) are also recorded as spans: name, start, end,
parent span and operation id.  Hot scalar and matrix methods ("agg" targets)
get aggregates only, since one operation makes millions of them.  Everything
stays in memory until `Tracer.dump` writes it out.

`spinalg.context()` is a cache lookup and is deliberately not wrapped: the
first build per rank is timed through `SpinContext.__init__` instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

SPAN, AGG = "span", "agg"

# (module, attribute path, trace name, kind).  Two targets may share a name.
TARGETS = [
    ("exactnum", "SqrtNumber.__mul__", "exactnum.mul", AGG),
    ("exactnum", "SqrtNumber.__add__", "exactnum.add", AGG),
    ("exactnum", "SqrtNumber.invert", "exactnum.invert", AGG),
    ("exactnum", "SqrtNumber.sign", "exactnum.sign", AGG),
    ("linalg", "Mat.__mul__", "linalg.matmul", AGG),
    ("linalg", "Echelon.add", "linalg.echelon_add", AGG),
    ("linalg", "kernel", "linalg.kernel", AGG),
    ("linalg", "min_poly", "linalg.min_poly", AGG),
    ("linalg", "eigensplit", "linalg.eigensplit", SPAN),
    ("spinalg", "SpinContext.__init__", "spinalg.context_build", SPAN),
    ("spinalg", "SpinElement.__mul__", "spinalg.product", AGG),
    ("spinalg", "supercenter_basis", "spinalg.supercenter_basis", SPAN),
    ("spinalg", "gz_algebras", "spinalg.gz_algebras", SPAN),
    ("gradedstruct", "split_module_by_central", "gradedstruct.split_module_by_central", SPAN),
    ("gradedstruct", "BlockReport.to_json", "gradedstruct.to_json", SPAN),
    ("shiftedcomb", "standard_tableaux", "shiftedcomb.standard_tableaux", AGG),
    ("seminormal", "build_rep_plain", "seminormal.build_rep", SPAN),
    ("seminormal", "build_rep_clifford_tensor", "seminormal.build_rep", SPAN),
    ("seminormal", "spectrum_of", "seminormal.spectrum_of", SPAN),
    ("seminormal", "verify_relations", "seminormal.verify_relations", SPAN),
    ("seminormal", "module_commutant", "seminormal.module_commutant", SPAN),
    ("seminormal", "split_into_irreducibles", "seminormal.split_into_irreducibles", SPAN),
    ("seminormal", "regular_decompose", "seminormal.regular_decompose", SPAN),
    ("seminormal", "empirical_type", "seminormal.empirical_type", SPAN),
    ("seminormal", "restrict_and_branch", "seminormal.restrict_and_branch", SPAN),
    ("seminormal", "GradedRep.to_json", "seminormal.to_json", SPAN),
    ("seminormal", "GradedRep.from_json", "seminormal.from_json", SPAN),
    ("cli", "main", "cli.main", SPAN),
    ("cli", "_emit", "cli.emit", SPAN),
    ("cli", "_emit_text", "cli.emit", SPAN),
]


class Tracer:
    def __init__(self, op_id: int):
        self.op_id = op_id
        self.child = [0.0]  # nested wrapped time of each open call; [0] is the root
        self.open_spans = [None]
        self.spans: list = []
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, inclusive_s]
        self.rational_muls = 0
        self.kernel_cols_max = 0

    def wrap(self, name: str, kind: str, fn):
        clock = time.perf_counter
        child = self.child
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        if kind == AGG:
            def wrapper(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    el = clock() - t0
                    stat[0] += 1
                    stat[1] += el - child.pop()
                    stat[2] += el
                    child[-1] += el
        else:
            spans, open_spans, op_id = self.spans, self.open_spans, self.op_id

            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1]
                open_spans.append(sid)
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    el = t1 - t0
                    stat[0] += 1
                    stat[1] += el - child.pop()
                    stat[2] += el
                    child[-1] += el
                    open_spans.pop()
                    spans[sid] = [sid, name, t0, t1, parent, op_id]

        return functools.update_wrapper(wrapper, fn)

    def observe_mul(self, fn):
        """Count products whose operands are both rational."""
        tracer = self

        def mul(a, b):
            if a.is_rational() and (not hasattr(b, "is_rational") or b.is_rational()):
                tracer.rational_muls += 1
            return fn(a, b)

        return functools.update_wrapper(mul, fn)

    def observe_kernel(self, fn):
        tracer = self

        def kernel(constraints, ncols):
            tracer.kernel_cols_max = max(tracer.kernel_cols_max, ncols)
            return fn(constraints, ncols)

        return functools.update_wrapper(kernel, fn)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "op": self.op_id,
                    "stats": self.stats,
                    "rational_muls": self.rational_muls,
                    "kernel_cols_max": self.kernel_cols_max,
                    "spans": self.spans,
                },
                fh,
            )


def install(op_id: int) -> Tracer:
    """Wrap every TARGET wherever the package holds the same function object."""
    importlib.import_module("superspin.cli")
    tracer = Tracer(op_id)
    modules = [m for k, m in list(sys.modules.items()) if k.startswith("superspin") and m]
    holders = modules + [
        v for m in modules for v in vars(m).values()
        if isinstance(v, type) and v.__module__.startswith("superspin")
    ]
    for modname, path, name, kind in TARGETS:
        owner = importlib.import_module(f"superspin.{modname}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        method_type = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        inner = original.__func__ if method_type else original
        if path == "SqrtNumber.__mul__":
            inner = tracer.observe_mul(inner)
        elif path == "kernel":
            inner = tracer.observe_kernel(inner)
        wrapped = tracer.wrap(name, kind, inner)
        if method_type:
            wrapped = method_type(wrapped)
        for holder in set(holders):
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
    return tracer
