#!/usr/bin/env python3
"""riglab benchmark: one workload per process, closed loop, one operation at a time.

    python3 perfbench/run.py --workload trial_giant --seed 1 --seconds 20 --trace 0

Runs whole operations until --seconds have passed, then measures set-up in
fresh interpreters, then checks every output against oracles outside the
timed region.  The last line of stdout is one JSON object: correct,
attempted, failed and the metrics (end-to-end with --trace 0, per-layer with
--trace 1).  A fuller record, and the spans of a traced run, go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 5

if not (ROOT / "src" / "riglab" / "__init__.py").is_file():
    sys.exit(f"riglab sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
_start = time.perf_counter()
import riglab  # noqa: E402,F401  the first import of numpy and scipy happens here
IMPORT_MS = (time.perf_counter() - _start) * 1e3

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"ops_per_s": "1/s", "op_ms.p50": "ms", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER = {
    "model.sample_bipartite.ms": "ms",
    "model.project_with_excess.ms": "ms",
    "components.census.ms": "ms",
    "experiments.run_trial.ms": "ms",
    "model.bipartite_edges": "count",
    "model.pair_keys": "count",
    "model.distinct_edges": "count",
    "components.count": "count",
    "model.dedupe_yield": "ratio",
    "experiments.run_sweep.ms": "ms",
    "experiments.sweep_efficiency": "ratio",
    "experiments.summarize.ms": "ms",
    "experiments.csv_bytes": "bytes",
    "theory.solve_extinction.ms": "ms",
    "theory.solve_extinction.iterations": "count",
    "theory.chernoff.ms": "ms",
    "degree.cpoisson_pmf.ms": "ms",
    "degree.rig_pmf.ms": "ms",
    "riglab.import.ms": "ms",
}


def probe_setup(args) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until it is ready for its
    first timed operation, and the milliseconds its `import riglab` took."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready - start, float(line.split()[1])


def layer_metrics(wl, tracer, n_ops: int, import_ms: float) -> dict[str, float]:
    """Per-layer metrics: per operation, summed span times and counts; then
    the median over operations.  A layer the workload never calls reads 0."""
    per_op = tracing.per_op_totals(tracer.spans, n_ops)
    for op, t in enumerate(per_op):
        if t.get("model.pair_keys"):
            t["model.dedupe_yield"] = t["model.distinct_edges"] / t["model.pair_keys"]
        if t.get("experiments.run_sweep.ms"):
            t["experiments.sweep_efficiency"] = t.get("experiments.run_trial.ms", 0.0) / (
                wl.WORKERS * t["experiments.run_sweep.ms"])
            t["experiments.csv_bytes"] = wl.csv_path(op).stat().st_size
    metrics = {name: statistics.median(t.get(name, 0) for t in per_op)
               for name in PER_LAYER}
    metrics["riglab.import.ms"] = import_ms
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe", action="store_true",
                    help="set up, warm up, print 'ready <import ms>' and exit")
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        wl.warm_up()
        if args.probe:
            print(f"ready {IMPORT_MS!r}", flush=True)
            return 0
        result = measure(args, wl)
    print(json.dumps(result))
    return 0


def measure(args, wl) -> dict:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    op_ms, outputs = [], []
    start = time.perf_counter()
    while True:
        op = len(outputs)
        if tracer:
            tracer.begin(op)
        t0 = time.perf_counter()
        outputs.append(wl.run_op(op))
        t1 = time.perf_counter()
        if tracer:
            tracer.end()
        op_ms.append((t1 - t0) * 1e3)
        if t1 - start >= args.seconds:
            break
    elapsed = t1 - start
    # sweep workers, if a timed sweep forks any, are reaped children by now;
    # the set-up probes and the checks' 2-worker sweep are not yet
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(s for s, _ in probes)
    import_ms = statistics.median(ms for _, ms in probes)

    import checks  # scipy.optimize and friends stay out of the probes' set-up
    verdict = checks.CHECKS[args.workload](wl, outputs)
    unexpected = [p for problems in verdict.per_op for p in problems
                  if p[0] not in wl.KNOWN_FAULTS] + verdict.run
    failed = sum(1 for problems in verdict.per_op if problems)

    if tracer:
        metrics = layer_metrics(wl, tracer, len(outputs), import_ms)
        units = PER_LAYER
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        metrics = {"ops_per_s": len(outputs) / elapsed,
                   "op_ms.p50": statistics.median(op_ms),
                   "peak_rss_mb": peak_kib / 1024.0,
                   "setup_s": setup_s}
        units = END_TO_END
    result = {"correct": not unexpected and not verdict.vacuous,
              "attempted": len(outputs), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    detail = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "op_ms": op_ms,
              "setup_s": [s for s, _ in probes], "import_ms": [ms for _, ms in probes],
              "problems": [p for problems in verdict.per_op for p in problems] + verdict.run,
              "vacuous_checks": verdict.vacuous}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(detail, f, indent=1)
    for (label, message), count in Counter(map(tuple, detail["problems"])).items():
        print(f"# check failed ({count}x): {label}: {message}", file=sys.stderr)
    for name in verdict.vacuous:
        print(f"# vacuous check: {name} accepted a perturbed output", file=sys.stderr)
    return result


if __name__ == "__main__":
    sys.exit(main())
