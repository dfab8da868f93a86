"""Golden output: sha256 of the exact bytes each CLI command writes.

The hashes in golden_sha256.json pin stdout (and, for `build-rep --out`, the
written file) byte for byte, together with the exit code.  A refactor must
leave every entry unchanged; a deliberate output change re-records them with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_sha256.json

and says so in the change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from superspin import cli

GOLDEN = Path(__file__).with_name("golden_sha256.json")

# (label, argv); "{model:NAME}" is the file written by the build labelled NAME
COMMANDS = [
    ("strict-partitions 8 --json", ["strict-partitions", "8", "--json"]),
    ("tableaux 3,2,1 --json", ["tableaux", "3,2,1", "--json"]),
    ("spectrum 3,2,1 --oracle", ["spectrum", "3,2,1", "--oracle"]),
    ("branching-graph 5 --oracle", ["branching-graph", "5", "--oracle"]),
    ("branching-graph 4 --dot", ["branching-graph", "4", "--dot"]),
    ("branching-graph 30", ["branching-graph", "30"]),
    ("build-rep 3,2", ["build-rep", "3,2", "--out", "{out}"]),
    ("build-rep 3,1 --algebra tensor", ["build-rep", "3,1", "--algebra", "tensor", "--out", "{out}"]),
    ("verify <build-rep 3,2>", ["verify", "{model:build-rep 3,2}"]),
    ("verify <build-rep 3,1 --algebra tensor>", ["verify", "{model:build-rep 3,1 --algebra tensor}"]),
    ("build-rep 4,2", ["build-rep", "4,2", "--out", "{out}"]),
    ("verify <build-rep 4,2>", ["verify", "{model:build-rep 4,2}"]),
    ("build-rep 5 --algebra tensor", ["build-rep", "5", "--algebra", "tensor", "--out", "{out}"]),
    ("verify <build-rep 5 --algebra tensor>", ["verify", "{model:build-rep 5 --algebra tensor}"]),
    ("build-rep 3,2 --algebra tensor", ["build-rep", "3,2", "--algebra", "tensor", "--out", "{out}"]),
    ("verify <build-rep 3,2 --algebra tensor>", ["verify", "{model:build-rep 3,2 --algebra tensor}"]),
    ("build-rep 5,1", ["build-rep", "5,1", "--out", "{out}"]),
    ("verify <build-rep 5,1>", ["verify", "{model:build-rep 5,1}"]),
    ("supercenter 5", ["supercenter", "5"]),
    ("supercenter 7", ["supercenter", "7"]),
    ("gz 4", ["gz", "4"]),
    ("gz 5", ["gz", "5"]),
    ("decompose-regular A 4", ["decompose-regular", "A", "4"]),
    ("decompose-regular CA 3", ["decompose-regular", "CA", "3"]),
    ("decompose-regular A 5", ["decompose-regular", "A", "5"]),
    ("decompose-regular CA 4", ["decompose-regular", "CA", "4"]),
    ("check-all --max-n 3", ["check-all", "--max-n", "3"]),
    ("check-all --max-n 3 --json", ["check-all", "--max-n", "3", "--json"]),
    ("check-all --max-n 3 --negative-control", ["check-all", "--max-n", "3", "--negative-control"]),
    ("check-all --max-n 4 --negative-control", ["check-all", "--max-n", "4", "--negative-control"]),
    ("decompose-regular A 2", ["decompose-regular", "A", "2"]),
    ("decompose-regular CA 2", ["decompose-regular", "CA", "2"]),
    ("decompose-regular A 3", ["decompose-regular", "A", "3"]),
    ("check-all --max-n 5", ["check-all", "--max-n", "5"]),
    ("build-rep 4,2,1", ["build-rep", "4,2,1", "--out", "{out}"]),
    ("verify <build-rep 4,2,1>", ["verify", "{model:build-rep 4,2,1}"]),
    ("build-rep 7", ["build-rep", "7", "--out", "{out}"]),
    ("verify <build-rep 7>", ["verify", "{model:build-rep 7}"]),
    ("build-rep 4 --algebra tensor", ["build-rep", "4", "--algebra", "tensor", "--out", "{out}"]),
    ("verify <build-rep 4 --algebra tensor>", ["verify", "{model:build-rep 4 --algebra tensor}"]),
    ("check-all --max-n 7", ["check-all", "--max-n", "7"]),
    ("decompose-regular A 1", ["decompose-regular", "A", "1"]),
    ("decompose-regular CA 1", ["decompose-regular", "CA", "1"]),
    ("gz 3", ["gz", "3"]),
    ("check-all --max-n 6", ["check-all", "--max-n", "6"]),
    ("branching-graph 6 --oracle", ["branching-graph", "6", "--oracle"]),
    ("build-rep 4,2,1 --algebra tensor", ["build-rep", "4,2,1", "--algebra", "tensor", "--out", "{out}"]),
    ("verify <build-rep 4,2,1 --algebra tensor>", ["verify", "{model:build-rep 4,2,1 --algebra tensor}"]),
    ("decompose-regular A 6", ["decompose-regular", "A", "6"]),
    ("decompose-regular CA 5", ["decompose-regular", "CA", "5"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(workdir: Path) -> dict:
    """label -> {"rc", "stdout"[, "out"]} for every command, run in order."""
    models: dict[str, Path] = {}
    out: dict[str, dict] = {}
    for label, argv in COMMANDS:
        path = workdir / f"{len(models)}.json"
        args = []
        for a in argv:
            if a == "{out}":
                models[label] = path
                a = str(path)
            elif a.startswith("{model:"):
                a = str(models[a[len("{model:"):-1]])
            args.append(a)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(args)
        entry = {"rc": rc, "stdout": _sha(buf.getvalue().encode("utf-8"))}
        if label in models:
            entry["out"] = _sha(path.read_bytes())
        out[label] = entry
    return out


def test_golden_output(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert list(got) == list(want)
    changed = [label for label in want if got[label] != want[label]]
    assert not changed, f"output changed for: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(json.dumps(digests(Path(tmp)), indent=2) + "\n")
