"""Per-layer spans recorded from outside the program.

The traced run replaces a few public riglab functions with timing wrappers
in every riglab module namespace that holds them.  Each call becomes a span
(name, start, end, parent span, counts read from its return value), kept in
memory.  Spans are recorded in this process only: every timed operation runs
here, and the checks' 2-worker sweep runs while no operation is recording.
Only the traced run installs the wrappers, so the untraced run measures the
program as it is.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from pathlib import Path


def _pair_counts(out):
    g, eta = out
    return {"model.distinct_edges": g.edge_count,
            "model.pair_keys": g.edge_count + eta}


# (module, function, span name, counts read from the return value)
LAYERS = (
    ("model", "sample_bipartite", "model.sample_bipartite",
     lambda b: {"model.bipartite_edges": b.edge_count}),
    ("model", "project_with_excess", "model.project_with_excess", _pair_counts),
    ("components", "census", "components.census",
     lambda c: {"components.count": len(c.sizes)}),
    ("experiments", "run_trial", "experiments.run_trial", None),
    ("experiments", "run_sweep", "experiments.run_sweep", None),
    ("experiments", "summarize", "experiments.summarize", None),
    ("theory", "solve_extinction", "theory.solve_extinction",
     lambda r: {"theory.solve_extinction.iterations": r.iterations}),
    ("theory", "chernoff_upper", "theory.chernoff", None),
    ("theory", "chernoff_lower", "theory.chernoff", None),
    ("degree", "cpoisson_pmf", "degree.cpoisson_pmf", None),
    ("degree", "rig_pmf", "degree.rig_pmf", None),
)


class Tracer:
    """Span recorder: `install` wraps the layers, and spans are recorded
    only between `begin(op)` and `end()`, around one timed operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._op: int | None = None

    def install(self) -> None:
        for module, func, name, counts in LAYERS:
            original = getattr(sys.modules[f"riglab.{module}"], func)
            wrapped = self._wrap(name, original, counts)
            for modname, mod in list(sys.modules.items()):
                if modname == "riglab" or modname.startswith("riglab."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            self.spans.append({"op": self._op, "id": span_id, "parent": parent,
                               "name": name, "start": start, "end": end,
                               "counts": counts(out) if counts else {}})
            return out
        return traced

    def begin(self, op: int) -> None:
        self._op = op

    def end(self) -> None:
        self._op = None

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def per_op_totals(spans: list[dict], n_ops: int) -> list[dict[str, float]]:
    """Per operation: summed milliseconds of each span name and summed counts."""
    totals: list[dict[str, float]] = [{} for _ in range(n_ops)]
    for span in spans:
        t = totals[span["op"]]
        key = span["name"] + ".ms"
        t[key] = t.get(key, 0.0) + (span["end"] - span["start"]) * 1e3
        for name, value in span["counts"].items():
            t[name] = t.get(name, 0) + value
    return totals
