"""Monte Carlo ensembles over (n, beta, gamma) grids with reproducible streams.

Every trial draws its random stream from (master_seed, grid_index, replicate),
so sweep output is identical for any worker count or schedule.  By default the
elapsed_ms column is left empty to keep output byte-reproducible; opt into
wall-clock timing with live_timing (which by nature breaks byte identity).
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import MISSING, asdict, dataclass, fields
from typing import IO, Iterable

import numpy as np

from .components import census, small_fraction
from .degree import DegreePmf
from .model import (ModelParams, _mu, check_trial_size, derive_params, is_int,
                    project_simple, project_with_excess, sample_aux_lists,
                    sample_bipartite)
from .theory import solve_extinction

__all__ = [
    "DEFAULT_SMALL_THRESHOLD_COEFF",
    "SweepConfig",
    "ExperimentRecord",
    "SweepResult",
    "SummaryRow",
    "trial_stream",
    "run_trial",
    "run_sweep",
    "empirical_degree_pmf",
    "summarize",
    "records_to_csv",
    "records_from_csv",
    "rows_to_json",
    "summary_to_csv",
    "RECORD_FIELDS",
]

DEFAULT_SMALL_THRESHOLD_COEFF = 3.0


def _is_real(value) -> bool:
    """True for a finite real number that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_int(name: str, value, least: int) -> None:
    if not is_int(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_coeff(coeff, name: str = "small_threshold_coeff") -> None:
    if not (_is_real(coeff) and coeff > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {coeff!r}")


def _grid_point(point) -> tuple[int, float, float]:
    """Check one [n, beta, gamma] point, budgets included, and return it as
    (int, float, float)."""
    if not (isinstance(point, (list, tuple)) and len(point) == 3):
        raise ValueError(f"expected [n, beta, gamma] triples, got {point!r}")
    n, beta, gamma = point
    if not (_is_real(beta) and _is_real(gamma)):
        raise ValueError(f"beta and gamma must be finite numbers, got {point!r}")
    # an integral float n such as 1e5 is an int; derive_params refuses other n
    n = int(n) if isinstance(n, float) and n.is_integer() else n
    params = derive_params(n, float(beta), float(gamma))
    check_trial_size(params.n, params.m, params.p)
    return params.n, params.beta, params.gamma


_field = "sweep config field {!r}".format


@dataclass(frozen=True)
class SweepConfig:
    """Grid of (n, beta, gamma) triples plus replication and output settings."""

    grid: tuple[tuple[int, float, float], ...]
    replicates: int
    master_seed: int
    small_threshold_coeff: float = DEFAULT_SMALL_THRESHOLD_COEFF
    output: str | None = None
    format: str = "csv"

    def __post_init__(self):
        """Check every field, of a config from JSON or from Python alike, and
        store the grid as (int, float, float) triples; raises ValueError naming
        the first field that is malformed, out of range or over a size budget."""
        try:
            if not (isinstance(self.grid, (list, tuple)) and self.grid):
                raise ValueError("expected a non-empty list of [n, beta, gamma] triples")
            object.__setattr__(self, "grid", tuple(map(_grid_point, self.grid)))
        except ValueError as exc:
            raise ValueError(f"{_field('grid')}: {exc}") from None
        _check_int(_field("replicates"), self.replicates, 1)
        _check_int(_field("master_seed"), self.master_seed, 0)
        _check_coeff(self.small_threshold_coeff, _field("small_threshold_coeff"))
        object.__setattr__(self, "small_threshold_coeff", float(self.small_threshold_coeff))
        if self.output is not None and not isinstance(self.output, str):
            raise ValueError(f"{_field('output')} must be a path string, got {self.output!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"{_field('format')} must be csv or json, got {self.format!r}")

    @classmethod
    def from_json(cls, f: IO[str]) -> "SweepConfig":
        """Parse a config document; raises ValueError naming the field that
        is missing, malformed or unknown."""
        doc = json.load(f)
        if not isinstance(doc, dict):
            raise ValueError(f"sweep config must be a JSON object, "
                             f"got {type(doc).__name__}")
        if unknown := sorted(set(doc) - {fd.name for fd in fields(cls)}):
            raise ValueError(f"sweep config has unknown fields {unknown}")
        for fd in fields(cls):
            if fd.default is MISSING and fd.name not in doc:
                raise ValueError(f"{_field(fd.name)} is missing")
        return cls(**doc)


@dataclass(frozen=True)
class ExperimentRecord:
    """One trial's observables; never constructed partially filled."""

    n: int
    beta: float
    gamma: float
    mu: float
    replicate: int
    seed: int
    largest: int
    second: int
    small_fraction: float
    eta: int
    degree_mean: float
    elapsed_ms: float | None


RECORD_FIELDS = tuple(f.name for f in fields(ExperimentRecord))
_CSV_PARSERS = {"int": int, "float": float,
                "float | None": lambda s: float(s) if s else None}
_RECORD_PARSERS = tuple(_CSV_PARSERS[f.type] for f in fields(ExperimentRecord))


@dataclass(frozen=True)
class SweepResult:
    records: tuple[ExperimentRecord, ...]
    failures: tuple[dict, ...]


def trial_stream(master_seed: int, grid_index: int,
                 replicate: int) -> tuple[int, np.random.Generator]:
    """Independent counter-based stream for one trial, plus its stable id.

    The Philox generator is keyed by SeedSequence((master_seed, grid_index,
    replicate)); the id recorded in output is the first uint64 of the derived
    state, enough to re-create the stream from the config alone.  Raises
    ValueError on a master seed that is not an integer >= 0.
    """
    _check_int("master_seed", master_seed, 0)
    ss = np.random.SeedSequence((master_seed, grid_index, replicate))
    seed_id = int(ss.generate_state(1, np.uint64)[0])
    return seed_id, np.random.Generator(np.random.Philox(seed=ss))


def run_trial(params: ModelParams, rng: np.random.Generator,
              small_threshold_coeff: float = DEFAULT_SMALL_THRESHOLD_COEFF,
              replicate: int = 0, seed: int = 0,
              live_timing: bool = False) -> ExperimentRecord:
    """Sample one graph, project it, and measure every recorded observable.

    Raises ValueError, before sampling, on a coefficient that is not finite
    and positive or a graph over either budget of model.check_trial_size.
    """
    _check_coeff(small_threshold_coeff)
    check_trial_size(params.n, params.m, params.p)
    t0 = time.perf_counter()
    b = sample_bipartite(params, rng)
    g, eta = project_with_excess(b)
    del b  # the bipartite graph is not needed past the projection
    c = census(g)
    threshold = max(1, math.ceil(small_threshold_coeff * math.log(params.n)))
    elapsed = (time.perf_counter() - t0) * 1000.0
    return ExperimentRecord(
        n=params.n, beta=params.beta, gamma=params.gamma, mu=params.mu,
        replicate=replicate, seed=seed,
        largest=c.largest, second=c.second,
        small_fraction=small_fraction(c, threshold),
        eta=eta, degree_mean=2.0 * g.edge_count / params.n,
        elapsed_ms=elapsed if live_timing else None,
    )


def _trial_task(args) -> tuple[ExperimentRecord | None, str | None]:
    master_seed, gi, rep, n, beta, gamma, coeff, live_timing = args
    try:
        params = derive_params(n, beta, gamma)
        seed_id, rng = trial_stream(master_seed, gi, rep)
        return run_trial(params, rng, small_threshold_coeff=coeff, replicate=rep,
                         seed=seed_id, live_timing=live_timing), None
    except Exception as exc:  # failure isolation: record, never abort the sweep
        return None, f"{type(exc).__name__}: {exc}"


def _outcomes(tasks: list, workers: int):
    """Yield each task's (record, error) in task order, from this process or
    from a pool of `workers` processes; a task the pool lost to a dead
    worker yields (None, "worker process died")."""
    if workers <= 1:
        yield from map(_trial_task, tasks)
        return
    # imported here, so a one-process run loads no pool (2 MiB, about 23 ms)
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for fut in [pool.submit(_trial_task, t) for t in tasks]:
            try:
                yield fut.result()
            except BrokenProcessPool:
                yield None, "worker process died"


def run_sweep(config: SweepConfig, workers: int = 1, live_timing: bool = False,
              sink: IO[str] | None = None) -> SweepResult:
    """Run every (grid point, replicate) trial on independent streams.

    Output order is canonical (grid order, then replicate index) regardless
    of worker count; with a `sink`, CSV rows are flushed incrementally as
    soon as they are next in canonical order.  Per-trial failures are
    collected, not raised; when a worker process dies, every task that had
    not finished is recorded as failed.  Raises ValueError if workers < 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [(config.master_seed, gi, rep, n, beta, gamma,
              config.small_threshold_coeff, live_timing)
             for gi, (n, beta, gamma) in enumerate(config.grid)
             for rep in range(config.replicates)]
    if sink is not None:
        _write_csv(ExperimentRecord, (), sink)  # the header; rows follow one by one
    records = []
    failures = []
    # outcomes come first, so that zip runs the generator to its end, which
    # shuts the pool down before run_sweep returns
    outcomes = _outcomes(tasks, min(workers, len(tasks)))
    for (rec, err), t in zip(outcomes, tasks):
        if rec is None:
            failures.append({"grid_index": t[1], "replicate": t[2], "error": err})
            continue
        records.append(rec)
        if sink is not None:
            sink.write(_csv_row(rec))
    return SweepResult(records=tuple(records), failures=tuple(failures))


def empirical_degree_pmf(m: int, n: int, p: float, rng: np.random.Generator,
                         samples: int) -> DegreePmf:
    """Degree pmf of the simple projection, sampled from whole graphs: counts
    every vertex of ceil(samples/n) sampled graphs, one graph at a time, and
    trims trailing zeros.  Refuses samples < 1 and, before sampling, a graph
    over either budget of check_trial_size."""
    if samples < 1:
        raise ValueError(f"empirical degree pmf needs samples >= 1, got {samples}")
    check_trial_size(n, m, p)
    counts = np.trim_zeros(sum(
        np.bincount(project_simple(sample_aux_lists(n, m, p, rng)).degrees(), minlength=n)
        for _ in range(-(-samples // n))), "b")
    return DegreePmf(counts / counts.sum())


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummaryRow:
    """Per grid point aggregate, joined with the fixed-point prediction."""

    n: int
    beta: float
    gamma: float
    mu: float
    replicates: int
    largest_frac_mean: float
    largest_frac_sd: float
    second_over_logn_mean: float
    second_over_logn_sd: float
    small_fraction_mean: float
    small_fraction_sd: float
    eta_mean: float
    eta_sd: float
    degree_mean_mean: float
    rho: float
    predicted_giant_frac: float


def summarize(records: Iterable[ExperimentRecord]) -> list[SummaryRow]:
    """Aggregate records per grid point; predicted giant fraction is 1 - rho
    (zero when mu <= 1)."""
    records = list(records)
    if not records:
        raise ValueError("cannot summarize an empty record set")
    groups: dict[tuple[int, float, float], list[ExperimentRecord]] = {}
    for r in records:
        groups.setdefault((r.n, r.beta, r.gamma), []).append(r)
    rows = []
    for (n, beta, gamma), rs in groups.items():
        logn = math.log(n) if n > 1 else 1.0
        stats = {}
        for name, values in (("largest_frac", [r.largest / r.n for r in rs]),
                             ("second_over_logn", [r.second / logn for r in rs]),
                             ("small_fraction", [r.small_fraction for r in rs]),
                             ("eta", [float(r.eta) for r in rs])):
            xs = np.array(values)
            stats[f"{name}_mean"] = float(xs.mean())
            stats[f"{name}_sd"] = float(xs.std(ddof=1)) if len(xs) > 1 else 0.0
        fp = solve_extinction(beta, gamma)
        rows.append(SummaryRow(
            n=n, beta=beta, gamma=gamma, mu=rs[0].mu, replicates=len(rs), **stats,
            degree_mean_mean=float(np.array([r.degree_mean for r in rs]).mean()),
            rho=fp.rho, predicted_giant_frac=1.0 - fp.rho,
        ))
    return rows


# ---------------------------------------------------------------------------
# serialization (CSV: RFC-4180-safe values, LF line endings)
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_row(row) -> str:
    return ",".join(_fmt(getattr(row, f.name)) for f in fields(row)) + "\n"


def _write_csv(cls, rows: Iterable, f: IO[str]) -> None:
    f.write(",".join(fd.name for fd in fields(cls)) + "\n")
    f.writelines(map(_csv_row, rows))


def records_to_csv(records: Iterable[ExperimentRecord], f: IO[str]) -> None:
    _write_csv(ExperimentRecord, records, f)


def _check_record(r: ExperimentRecord) -> ExperimentRecord:
    """r, unless a field holds a value no trial writes.  gamma is not
    checked: at alpha > 1 a trial may have gamma > n."""
    for name, lo, hi in (("n", 1, math.inf), ("replicate", 0, math.inf),
                         ("seed", 0, 2 ** 64 - 1), ("largest", 1, r.n),
                         ("second", 0, r.largest), ("eta", 0, math.inf),
                         ("small_fraction", 0.0, 1.0), ("degree_mean", 0.0, r.n - 1),
                         ("elapsed_ms", 0.0, math.inf)):
        value = getattr(r, name)
        if value is not None and not lo <= value <= hi:  # also rejects NaN
            raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")
    try:  # run_trial writes exactly this value, and no trial's mu overflows
        mu_ok = r.mu == _mu(r.beta, r.gamma)
    except ValueError:
        mu_ok = False
    if not mu_ok:
        raise ValueError(f"mu must be beta * gamma ** 2, got {r.mu!r} "
                         f"at beta={r.beta!r}, gamma={r.gamma!r}")
    return r


def records_from_csv(f: IO[str]) -> list[ExperimentRecord]:
    """Parse a records CSV; raises ValueError naming the line of a row with
    the wrong field count, a value that does not parse or an observable out
    of range."""
    header = f.readline().strip()
    if header != ",".join(RECORD_FIELDS):
        raise ValueError(f"unexpected CSV header: {header!r}")
    out = []
    for lineno, line in enumerate(f, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        vals = line.split(",")
        if len(vals) != len(RECORD_FIELDS):
            raise ValueError(f"records CSV line {lineno}: expected "
                             f"{len(RECORD_FIELDS)} fields, got {len(vals)}")
        try:
            out.append(_check_record(ExperimentRecord(
                *(parse(v) for parse, v in zip(_RECORD_PARSERS, vals)))))
        except ValueError as exc:
            raise ValueError(f"records CSV line {lineno}: {exc}") from None
    return out


def rows_to_json(rows: Iterable, f: IO[str]) -> None:
    """Write records or summary rows as a JSON list of objects."""
    json.dump([asdict(r) for r in rows], f, indent=1)
    f.write("\n")


def summary_to_csv(rows: Iterable[SummaryRow], f: IO[str]) -> None:
    _write_csv(SummaryRow, rows, f)
