#!/usr/bin/env python3
"""superspin benchmark: fixed lists of real user operations, checked exactly.

    python3 perfbench/run.py --workload build|classify|oracle --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
`src/`.  Load is one closed loop from this process: one operation at a time,
each in a fresh Python process, so the package's in-process caches start cold
as a user finds them.  An operation is a `superspin` command line, or, where
no command exists, `worker.py classify`.

The seed draws one pass: a fixed core of operations plus a few drawn from the
workload's extra pool, in a seeded order.  The core dominates time and output
so that every seed costs nearly the same; see README.md for the pools.

--trace 0 repeats the pass (at least twice, more while another fits in
--seconds) and reports the end-to-end metrics.  --trace 1 runs the pass once
untraced and once under the call tracer (tracer.py) and reports per-layer
metrics.  Every operation's result is checked; outputs of the same command
must be byte-identical across passes and with the tracer on.  The last line of
stdout is the result object; the line before it holds per-operation details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"
OP_CAP_S = 150
MIN_PASSES = 2

# Seminormal models: (shape, algebra).  Left out for the run budget: rank-7
# models other than (7) (18-60 s each), plain (4,2) and tensor (4,1).
BUILD_CORE = [
    ("6", "plain"), ("5,1", "plain"), ("4,1", "plain"), ("3,2,1", "plain"), ("7", "plain"),
    ("4", "tensor"), ("3,1", "tensor"), ("5", "tensor"), ("3,2", "tensor"),
]
BUILD_EXTRA = [("5", "plain"), ("3,2", "plain"), ("3", "tensor"), ("2,1", "tensor")]
# Classification: (shape, tensor).  Left out for the run budget: plain (4,1)
# and tensor (3,1), (5) (12-17 s each), and plain (6).
CLASSIFY_CORE = [("3,2,1", False), ("3,2", False), ("5", False), ("4", True)]
CLASSIFY_EXTRA = [
    ("4", False), ("3,1", False), ("3", False), ("2,1", False), ("3", True), ("2,1", True),
]
ORACLE_CORE = ["decompose-regular A 5", "decompose-regular CA 4"]
ORACLE_EXTRA = [
    "decompose-regular A 4", "decompose-regular CA 3", "decompose-regular A 3",
    "gz 4", "gz 3", "supercenter 7", "supercenter 6", "supercenter 5",
]
EXTRA_DRAWS = {"build": 2, "classify": 2, "oracle": 3}
BASELINE_COMMANDS = ["decompose-regular A 5", "decompose-regular CA 4"]

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("output_mb", "MB")]
PER_LAYER = [
    "seminormal.build_rep_s", "seminormal.spectrum_of_s", "seminormal.verify_relations_s",
    "seminormal.verify_relations_calls", "seminormal.module_commutant_s",
    "seminormal.module_commutant_calls", "seminormal.split_into_irreducibles_s",
    "seminormal.regular_decompose_s", "seminormal.to_json_s", "seminormal.from_json_s",
    "seminormal.self_s",
    "linalg.kernel_s", "linalg.kernel_calls", "linalg.kernel_cols_max",
    "linalg.echelon_add_s", "linalg.echelon_add_calls", "linalg.matmul_s",
    "linalg.matmul_calls", "linalg.min_poly_s", "linalg.eigensplit_s", "linalg.self_s",
    "exactnum.mul_calls", "exactnum.add_calls", "exactnum.invert_calls",
    "exactnum.sign_calls", "exactnum.rational_mul_share", "exactnum.self_s",
    "gradedstruct.split_module_by_central_s", "gradedstruct.self_s",
    "spinalg.context_build_s", "spinalg.product_s", "spinalg.product_calls",
    "spinalg.supercenter_basis_s", "spinalg.gz_algebras_s", "spinalg.self_s",
    "shiftedcomb.standard_tableaux_s", "shiftedcomb.self_s",
    "cli.emit_s",
    "trace.overhead_share",
]


@dataclass
class Op:
    label: str  # the command, without per-pass file names
    argv: list  # program arguments; "{out}" and "{model}" are per-pass files
    kind: str = "cli"  # "cli" or "classify"
    writes: bool = False  # the command writes the file "{out}"


@dataclass
class Result:
    op: Op
    pass_no: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    stdout: Path
    out: Path | None
    nbytes: int = 0
    digest: str = ""
    error: str | None = None


@dataclass
class Run:
    results: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # label -> sha256 of its first result
    verdicts: dict = field(default_factory=dict)  # label -> error of its first result


# -- operations ---------------------------------------------------------------


def build_ops(model) -> list[Op]:
    shape, algebra = model
    flag = ["--algebra", "tensor"] if algebra == "tensor" else []
    label = " ".join(["build-rep", shape, *flag])
    return [
        Op(label, ["build-rep", shape, *flag, "--out", "{out}"], writes=True),
        Op(f"verify <{label}>", ["verify", "{model}"]),
    ]


def classify_op(item) -> list[Op]:
    shape, tensor = item
    argv = [shape, "tensor"] if tensor else [shape]
    return [Op(" ".join(["classify", *argv]), argv, kind="classify")]


def oracle_op(cmd: str) -> list[Op]:
    return [Op(cmd, cmd.split())]


WORKLOADS = {
    "build": (BUILD_CORE, BUILD_EXTRA, build_ops),
    "classify": (CLASSIFY_CORE, CLASSIFY_EXTRA, classify_op),
    "oracle": (ORACLE_CORE, ORACLE_EXTRA, oracle_op),
}


def draw_pass(workload: str, seed: int) -> list[Op]:
    core, extra, to_ops = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    items = list(core) + rng.sample(extra, EXTRA_DRAWS[workload])
    rng.shuffle(items)
    return [op for item in items for op in to_ops(item)]


# -- execution ----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # makes traced counts repeat exactly
    return env


def spawn(cmd: list, stdout, env: dict, stderr=subprocess.DEVNULL):
    """Run cmd to completion, killed after OP_CAP_S; return (wall s, CPU s, max RSS MB, exit code).

    A child's maximum RSS starts from this process's own (see `runner_rss_mb`).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
    timer = threading.Timer(OP_CAP_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def command(kind: str, argv: list, trace_file: Path | None, op_id: int) -> list:
    worker = [sys.executable, str(HERE / "worker.py")]
    if trace_file is not None:
        worker += ["--trace", str(trace_file), "--op-id", str(op_id)]
    if kind == "classify":
        return worker + ["classify", *argv]
    if trace_file is not None:
        return worker + ["cli", *argv]
    return [sys.executable, "-m", "superspin.cli", *argv]


def run_pass(ops: list[Op], pass_no: int, env: dict, traced: bool) -> tuple[float, list]:
    pdir = WORK / f"pass{pass_no}"
    pdir.mkdir(parents=True)
    results = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        out = pdir / f"{i}.json" if op.writes else None
        if op.writes:
            model = out
        argv = [
            str(out) if a == "{out}" else str(model) if a == "{model}" else a for a in op.argv
        ]
        trace_file = pdir / f"{i}.trace.json" if traced else None
        stdout_path = pdir / f"{i}.stdout"
        with open(stdout_path, "wb") as fh, open(pdir / f"{i}.stderr", "wb") as err:
            wall, cpu, rss, rc = spawn(command(op.kind, argv, trace_file, i), fh, env, stderr=err)
        results.append(Result(op, pass_no, wall, cpu, rss, rc, stdout_path, out))
    return time.perf_counter() - t0, results


def digest_files(res: Result) -> None:
    h = hashlib.sha256()
    for path in (res.stdout, res.out):
        if path is not None and path.exists():
            size = path.stat().st_size
            res.nbytes += size
            h.update(size.to_bytes(8, "little"))
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
    res.digest = h.hexdigest()


def check_results(results: list, env: dict) -> None:
    """Check results in one worker process (see worker.py `check`)."""
    if not results:
        return
    todo = WORK / "check.json"
    todo.write_text(
        json.dumps(
            [
                {"label": r.op.label, "stdout": str(r.stdout),
                 "out": str(r.out) if r.out else None}
                for r in results
            ]
        ),
        encoding="utf-8",
    )
    verdict_file = WORK / "check.stdout"
    with open(verdict_file, "wb") as fh:
        rc = spawn([sys.executable, str(HERE / "worker.py"), "check", str(todo)], fh, env)[-1]
    try:
        verdicts = json.loads(verdict_file.read_text(encoding="utf-8")) if rc == 0 else None
    except ValueError:
        verdicts = None
    for i, r in enumerate(results):
        r.error = "result check did not run" if verdicts is None else verdicts[i]


def settle_pass(run: Run, results: list, env: dict) -> None:
    """Hash a finished pass, check the first result of each command, delete its files.

    A later run of a command must have the same bytes as the first, and then
    shares the first one's verdict.
    """
    fresh = []
    for res in results:
        digest_files(res)
        first = run.digests.setdefault(res.op.label, res.digest)
        if res.rc != 0:
            lines = res.stdout.with_suffix(".stderr").read_text(errors="replace").splitlines()
            res.error = res.error or f"exit code {res.rc}: {lines[-1] if lines else ''}"
        elif first != res.digest:
            res.error = "output differs from an earlier run of the same command"
        elif res.op.label in run.verdicts:
            res.error = res.error or run.verdicts[res.op.label]
        else:
            fresh.append(res)
    check_results(fresh, env)
    for res in fresh:
        run.verdicts[res.op.label] = res.error
    run.results.extend(results)
    shutil.rmtree(WORK / f"pass{results[0].pass_no}", ignore_errors=True)


# -- metrics ------------------------------------------------------------------


def calibration_s() -> float:
    """Stdlib-only reference timing, recorded to tell machine drift from code change."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(1, 40000):
        acc += (Fraction(k, 7) + Fraction(1, k)).denominator
    return time.perf_counter() - t0


def measure_setup(env: dict) -> list:
    """Times of three fresh interpreter starts that import superspin.cli and build its parser."""
    code = "import superspin.cli as cli; cli.build_parser()"
    return [spawn([sys.executable, "-c", code], subprocess.DEVNULL, env)[0] for _ in range(3)]


def read_trace(res: Result) -> dict:
    path = res.stdout.with_suffix(".trace.json")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        res.error = "no trace written"
        return {"stats": {}, "rational_muls": 0, "kernel_cols_max": 0, "spans": []}


def layer_metrics(traces: list[dict], untraced_s: float, traced_s: float) -> dict:
    stats: dict[str, list] = {}
    for tr in traces:
        for name, (calls, self_s, incl_s) in tr["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += incl_s

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def incl_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    m = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            m[name] = sum(v[1] for k, v in stats.items() if k.split(".")[0] == layer)
        elif name.endswith("_calls"):
            m[name] = calls(name[: -len("_calls")])
        elif name.endswith("_s"):
            m[name] = self_s(name[: -len("_s")])
    muls = calls("exactnum.mul")
    m["exactnum.rational_mul_share"] = sum(t["rational_muls"] for t in traces) / muls if muls else 0.0
    m["linalg.kernel_cols_max"] = max((t["kernel_cols_max"] for t in traces), default=0)
    # the emit step: model/report serialisation plus encoding and the write
    m["cli.emit_s"] = incl_s("cli.emit") + incl_s("seminormal.to_json") + incl_s("gradedstruct.to_json")
    m["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "superspin" / "cli.py").is_file():
        sys.stderr.write(f"no superspin sources under {SRC}\n")
        return 2
    env = child_env()
    # warm-up: also writes the bytecode cache, which users do not pay for per run
    rc = spawn([sys.executable, "-c", "import superspin.cli"], subprocess.DEVNULL, env)[-1]
    if rc != 0:
        sys.stderr.write("cannot import superspin.cli from src/\n")
        return 2
    ops = draw_pass(args.workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    calib = [calibration_s()]
    run = Run()
    pass_times = []
    try:
        if args.trace:
            untraced, results = run_pass(ops, 0, env, traced=False)
            settle_pass(run, results, env)
            traced, results = run_pass(ops, 1, env, traced=True)
            traces = [read_trace(r) for r in results]
            settle_pass(run, results, env)
            pass_times = [untraced, traced]
            metrics = layer_metrics(traces, untraced, traced)
            TRACE_OUT.mkdir(exist_ok=True)
            with open(TRACE_OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
                json.dump({"ops": [o.label for o in ops], "traces": traces}, fh)
        else:
            # set-up is sampled before, between and after the passes
            setup = measure_setup(env)
            start = time.perf_counter()
            while True:
                elapsed, results = run_pass(ops, len(pass_times), env, traced=False)
                pass_times.append(elapsed)
                settle_pass(run, results, env)
                if len(pass_times) == 1:
                    setup += measure_setup(env)
                spent = time.perf_counter() - start
                if len(pass_times) >= MIN_PASSES and spent + max(pass_times) > args.seconds:
                    break
            setup += measure_setup(env)
            first = [r for r in run.results if r.pass_no == 0]
            metrics = {
                "wall_s": statistics.median(pass_times),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": max(r.rss_mb for r in run.results),
                "output_mb": sum(r.nbytes for r in first) / 1e6,
            }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    calib.append(calibration_s())

    failed = sum(1 for r in run.results if r.error is not None)
    attempted = len(run.results)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "runner_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration_s": calib,
        "error_rate": failed / attempted,
        "pass_s": pass_times,
        "baseline_s": {
            label: [r.wall_s for r in run.results if r.op.label == label]
            for label in BASELINE_COMMANDS
            if any(r.op.label == label for r in run.results)
        },
        "ops": [
            {
                "pass": r.pass_no,
                "op": r.op.label,
                "wall_s": r.wall_s,
                "cpu_s": r.cpu_s,
                "rss_mb": r.rss_mb,
                "bytes": r.nbytes,
                "error": r.error,
            }
            for r in run.results
        ],
    }
    print(json.dumps(details, sort_keys=True))
    names = [n for n, _ in END_TO_END] if not args.trace else PER_LAYER
    units = dict(END_TO_END)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    n: {"value": metrics[n], "unit": units.get(n) or unit_of(n)} for n in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
