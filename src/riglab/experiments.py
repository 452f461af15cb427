"""Monte Carlo ensembles over (n, beta, gamma) grids with reproducible streams.

Every trial draws its random stream from (master_seed, grid_index, replicate),
so sweep output is identical for any worker count or schedule.  By default the
elapsed_ms column is left empty to keep output byte-reproducible; opt into
wall-clock timing with live_timing (which by nature breaks byte identity).
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields
from typing import IO, Iterable

import numpy as np

from .components import census, small_fraction
from .model import ModelParams, derive_params, project_with_excess, sample_bipartite
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
    "summarize",
    "records_to_csv",
    "records_from_csv",
    "records_to_json",
    "summary_to_csv",
    "summary_to_json",
    "RECORD_FIELDS",
]

DEFAULT_SMALL_THRESHOLD_COEFF = 3.0

# A trial's traced peak is about 37 bytes per pair key (37.0 and 36.5 at
# n = 10^6, gamma = 2 and 4), so this budget keeps one trial near 1.9 GB.
PAIR_KEY_BUDGET = 50_000_000


def _check_pair_budget(params: ModelParams) -> None:
    """Raise ValueError when one trial's expected pair-key count,
    m*C(n,2)*p^2, exceeds PAIR_KEY_BUDGET."""
    expected = params.m * (params.n * (params.n - 1) / 2.0) * params.p ** 2
    if expected > PAIR_KEY_BUDGET:
        raise ValueError(
            f"expected {expected:.3g} pair keys (n={params.n}, beta={params.beta}, "
            f"gamma={params.gamma}, alpha={params.alpha}) exceeds the budget of "
            f"{PAIR_KEY_BUDGET:.3g}")


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
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        for n, beta, gamma in self.grid:
            # raises on invalid or oversized triples
            _check_pair_budget(derive_params(n, beta, gamma))

    @classmethod
    def from_json(cls, f: IO[str]) -> "SweepConfig":
        doc = json.load(f)
        return cls(
            grid=tuple((int(n), float(b), float(g)) for n, b, g in doc["grid"]),
            replicates=int(doc["replicates"]),
            master_seed=int(doc["master_seed"]),
            small_threshold_coeff=float(doc.get("small_threshold_coeff",
                                                DEFAULT_SMALL_THRESHOLD_COEFF)),
            output=doc.get("output"),
            format=doc.get("format", "csv"),
        )

    def to_json(self, f: IO[str]) -> None:
        doc = {
            "grid": [list(t) for t in self.grid],
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "small_threshold_coeff": self.small_threshold_coeff,
            "output": self.output,
            "format": self.format,
        }
        json.dump(doc, f, indent=2)
        f.write("\n")


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
    state, enough to re-create the stream from the config alone.
    """
    ss = np.random.SeedSequence((master_seed, grid_index, replicate))
    seed_id = int(ss.generate_state(1, np.uint64)[0])
    return seed_id, np.random.Generator(np.random.Philox(seed=ss))


def run_trial(params: ModelParams, rng: np.random.Generator,
              small_threshold_coeff: float = DEFAULT_SMALL_THRESHOLD_COEFF,
              replicate: int = 0, seed: int = 0,
              live_timing: bool = False) -> ExperimentRecord:
    """Sample one graph, project it, and measure every recorded observable.

    Raises ValueError, before sampling, when the expected pair-key count
    exceeds PAIR_KEY_BUDGET.
    """
    _check_pair_budget(params)
    t0 = time.perf_counter()
    b = sample_bipartite(params, rng)
    g, eta = project_with_excess(b)
    del b  # the bipartite graph is not needed past the projection
    c = census(g)
    threshold = max(1, math.ceil(small_threshold_coeff * math.log(params.n))) \
        if params.n > 1 else 1
    elapsed = (time.perf_counter() - t0) * 1000.0
    return ExperimentRecord(
        n=params.n, beta=params.beta, gamma=params.gamma, mu=params.mu,
        replicate=replicate, seed=seed,
        largest=c.largest, second=c.second,
        small_fraction=small_fraction(c, threshold),
        eta=eta, degree_mean=2.0 * g.edge_count / params.n,
        elapsed_ms=elapsed if live_timing else None,
    )


def _trial_task(args) -> tuple[int, int, ExperimentRecord | None, str | None]:
    master_seed, gi, rep, n, beta, gamma, coeff, live_timing = args
    try:
        params = derive_params(n, beta, gamma)
        seed_id, rng = trial_stream(master_seed, gi, rep)
        rec = run_trial(params, rng, small_threshold_coeff=coeff,
                        replicate=rep, seed=seed_id, live_timing=live_timing)
        return gi, rep, rec, None
    except Exception as exc:  # failure isolation: record, never abort the sweep
        return gi, rep, None, f"{type(exc).__name__}: {exc}"


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
    results: dict[tuple[int, int], tuple[ExperimentRecord | None, str | None]] = {}

    if sink is not None:
        sink.write(",".join(RECORD_FIELDS) + "\n")
    flushed = 0

    def flush_ready():
        nonlocal flushed
        while flushed < len(tasks):
            key = (tasks[flushed][1], tasks[flushed][2])
            if key not in results:
                break
            rec, _ = results[key]
            if sink is not None and rec is not None:
                sink.write(_record_row(rec) + "\n")
            flushed += 1

    workers = min(workers, len(tasks))
    if workers <= 1:
        for t in tasks:
            gi, rep, rec, err = _trial_task(t)
            results[(gi, rep)] = (rec, err)
            flush_ready()
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            task_of = {pool.submit(_trial_task, t): t for t in tasks}
            pending = set(task_of)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    try:
                        gi, rep, rec, err = fut.result()
                    except BrokenProcessPool:
                        gi, rep = task_of[fut][1:3]
                        rec, err = None, "worker process died"
                    results[(gi, rep)] = (rec, err)
                flush_ready()

    records = []
    failures = []
    for t in tasks:
        rec, err = results[(t[1], t[2])]
        if rec is not None:
            records.append(rec)
        else:
            failures.append({"grid_index": t[1], "replicate": t[2], "error": err})
    return SweepResult(records=tuple(records), failures=tuple(failures))


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


def _mean_sd(xs: np.ndarray) -> tuple[float, float]:
    sd = float(xs.std(ddof=1)) if len(xs) > 1 else 0.0
    return float(xs.mean()), sd


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
        largest = np.array([r.largest / r.n for r in rs])
        second = np.array([r.second / logn for r in rs])
        small = np.array([r.small_fraction for r in rs])
        eta = np.array([float(r.eta) for r in rs])
        dmean = np.array([r.degree_mean for r in rs])
        fp = solve_extinction(beta, gamma)
        lf_m, lf_s = _mean_sd(largest)
        se_m, se_s = _mean_sd(second)
        sm_m, sm_s = _mean_sd(small)
        et_m, et_s = _mean_sd(eta)
        rows.append(SummaryRow(
            n=n, beta=beta, gamma=gamma, mu=rs[0].mu, replicates=len(rs),
            largest_frac_mean=lf_m, largest_frac_sd=lf_s,
            second_over_logn_mean=se_m, second_over_logn_sd=se_s,
            small_fraction_mean=sm_m, small_fraction_sd=sm_s,
            eta_mean=et_m, eta_sd=et_s,
            degree_mean_mean=float(dmean.mean()),
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


def _record_row(r: ExperimentRecord) -> str:
    return ",".join(_fmt(getattr(r, f)) for f in RECORD_FIELDS)


def records_to_csv(records: Iterable[ExperimentRecord], f: IO[str]) -> None:
    f.write(",".join(RECORD_FIELDS) + "\n")
    for r in records:
        f.write(_record_row(r) + "\n")


def records_from_csv(f: IO[str]) -> list[ExperimentRecord]:
    """Parse a records CSV; raises ValueError naming the line of a row with
    the wrong field count or a value that does not parse."""
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
            out.append(ExperimentRecord(*(parse(v) for parse, v
                                          in zip(_RECORD_PARSERS, vals))))
        except ValueError as exc:
            raise ValueError(f"records CSV line {lineno}: {exc}") from None
    return out


def records_to_json(records: Iterable[ExperimentRecord], f: IO[str]) -> None:
    json.dump([asdict(r) for r in records], f, indent=1)
    f.write("\n")


def summary_to_csv(rows: Iterable[SummaryRow], f: IO[str]) -> None:
    rows = list(rows)
    names = list(asdict(rows[0]).keys()) if rows else []
    f.write(",".join(names) + "\n")
    for r in rows:
        f.write(",".join(_fmt(v) for v in asdict(r).values()) + "\n")


def summary_to_json(rows: Iterable[SummaryRow], f: IO[str]) -> None:
    json.dump([asdict(r) for r in rows], f, indent=1)
    f.write("\n")
