"""The benchmark's traced run still resolves against the package.

perfbench/tracing.py wraps public riglab functions by name and reads counts
from their return values, so deleting or reshaping one breaks the traced run
and not the untraced one.  This runs one operation of each workload, traced,
in a fresh interpreter: perfbench/ is read and nothing is written under it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_OPS = """
import importlib.util, json, sys
from pathlib import Path

def load(name):
    spec = importlib.util.spec_from_file_location(name, Path(sys.argv[1]) / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

tracing, workloads = load("tracing"), load("workloads")
tracer = tracing.Tracer()
tracer.install()
for op, cls in enumerate(workloads.WORKLOADS.values()):
    wl = cls(1, Path.cwd())
    tracer.begin(op)
    wl.run_op(op)
    tracer.end()
print(json.dumps({
    "layers": {name: counts is not None for _, _, name, counts in tracing.LAYERS},
    "counted": sorted({s["name"] for s in tracer.spans if s["counts"]}),
    "recorded": sorted({s["name"] for s in tracer.spans}),
}))
"""


def test_every_layer_is_traced(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", TRACED_OPS, str(ROOT / "perfbench")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["recorded"] == sorted(got["layers"])
    assert got["counted"] == sorted(name for name, counted in got["layers"].items()
                                    if counted)
