"""The benchmark's call tracer still finds every function it wraps.

perfbench/tracer.py names its targets as (module, attribute path); install()
looks each one up with vars(owner)[attr], so a rename or a move in the
package would break `perfbench/run.py --trace 1`.  The tracer file is only
read here, never changed.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_target_resolves():
    targets = _targets()
    assert targets
    for modname, path, _name, _kind in targets:
        owner = importlib.import_module(f"superspin.{modname}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{modname}.{path}"
        target = vars(owner)[attr]
        assert callable(getattr(target, "__func__", target)), f"{modname}.{path}"


def test_reexported_solver_is_traced():
    # module_commutant lives in gradedstruct and is traced under its seminormal
    # name; calls made inside gradedstruct must reach the wrapper too
    code = (
        "import tracer\n"
        "t = tracer.install(0)\n"
        "from superspin import gradedstruct\n"
        "gradedstruct.classify_module(gradedstruct.q_algebra(1))\n"
        "print(t.stats['seminormal.module_commutant'][0], t.stats['linalg.kernel'][0])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(TRACER.parent)]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "2"]
