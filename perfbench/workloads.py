"""The workloads: inputs made from the seed, a warm-up, and the timed operation.

This module imports riglab and nothing of the checks, so that a set-up probe
(see run.py) times the program's own set-up and not the benchmark's oracles.
Every operation of a workload does the same amount of work whatever the seed:
the seed changes random streams and values that cost the same to handle.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from riglab import degree, experiments, model, theory


def op_master_seed(seed: int, op: int) -> int:
    """A master seed per (workload seed, operation), so no two operations share
    streams."""
    return int(np.random.SeedSequence((seed, op)).generate_state(1)[0])


class TrialGiant:
    """One `run_trial` at n = 10^6, beta = 1, gamma = 2 (mu = 4) per operation.

    Every trial layer does bulk work here (about 2e6 bipartite edges, 2e6
    pair keys and a giant of about 0.8e6 vertices); no theory code runs.
    """

    N, BETA, GAMMA = 1_000_000, 1.0, 2.0
    KNOWN_FAULTS: frozenset[str] = frozenset()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.params = model.derive_params(self.N, self.BETA, self.GAMMA)

    def warm_up(self) -> None:
        _, rng = experiments.trial_stream(self.seed, 1, 0)
        experiments.run_trial(model.derive_params(1000, self.BETA, self.GAMMA), rng)

    def stream(self, op: int):
        """The fresh stream of operation `op`: (seed id, generator)."""
        return experiments.trial_stream(self.seed, 0, op)

    def run_op(self, op: int):
        seed_id, rng = self.stream(op)
        return experiments.run_trial(self.params, rng, replicate=op, seed=seed_id)


class SweepTransition:
    """One `run_sweep` on 1 worker, streaming CSV to a file, then `summarize`.

    The mu ladder lies on both sides of 1 and keeps |mu - 1| >= 0.1 at
    n = 10^5: many small graphs, where per-auxiliary Python work, per-trial
    set-up and CSV streaming weigh more than the bulk dedupe.  The timed
    sweep runs in this one process: on a 2-CPU shared host, a sweep on 2
    workers times whichever CPU its neighbours slow down (see README).  The
    checks run the same sweep on PARALLEL_WORKERS workers once per run.
    """

    N = 100_000
    GRID = ((N, 0.5, 1.0), (N, 0.7, 1.0), (N, 0.9, 1.0),
            (N, 1.1, 1.0), (N, 1.5, 1.0), (N, 0.5, 2.0))
    REPLICATES = 2
    WORKERS = 1
    PARALLEL_WORKERS = 2
    KNOWN_FAULTS: frozenset[str] = frozenset()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def config(self, op: int) -> experiments.SweepConfig:
        return experiments.SweepConfig(grid=self.GRID, replicates=self.REPLICATES,
                                       master_seed=op_master_seed(self.seed, op))

    def csv_path(self, op: int) -> Path:
        return self.workdir / f"sweep-op{op}.csv"

    def warm_up(self) -> None:
        _, rng = experiments.trial_stream(self.seed, 1, 0)
        experiments.run_trial(model.derive_params(1000, 1.0, 1.0), rng)

    def run_op(self, op: int):
        with open(self.csv_path(op), "w") as sink:
            result = experiments.run_sweep(self.config(op), workers=self.WORKERS,
                                           sink=sink)
        return result, experiments.summarize(result.records)


class TheoryLadder:
    """One certification pass per operation, with no sampling.

    `solve_extinction` on a mu ladder dense near 1 (gamma = 1, beta = mu) plus
    one subcritical and one supercritical point drawn from the seed; the
    Chernoff bounds, the compound Poisson pmf and the exact degree pmf at
    n = 200 for the supercritical point.  The drawn points keep |mu - 1| >= 0.2,
    where the solver converges in well under a millisecond.
    """

    NEAR_CRITICAL = (0.9, 0.99, 0.999, 0.9999, 1.0, 1.0001, 1.001, 1.01, 1.1)
    PMF_N = 200
    # solve_extinction(1.0001, 1) returns rho = 1.0; brentq gives 0.99990000667
    KNOWN_FAULTS = frozenset({"rho(beta=1.0001, gamma=1.0)"})

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        gamma = float(rng.uniform(0.5, 2.0))
        mu_sub = float(rng.uniform(0.2, 0.8))
        mu_super = float(rng.uniform(1.5, 4.0))
        self.ladder = [(mu, 1.0) for mu in self.NEAR_CRITICAL]
        self.ladder += [(mu_sub / gamma ** 2, gamma), (mu_super / gamma ** 2, gamma)]
        beta = mu_super / gamma ** 2
        self.params = model.derive_params(self.PMF_N, beta, gamma)
        self.spec = degree.CompoundPoissonSpec(beta * gamma, gamma)
        self.kmax = 80
        self.k = int(rng.integers(20, 61))
        self.delta = float(rng.uniform(0.3, 0.7))

    def warm_up(self) -> None:
        theory.solve_extinction(2.0, 1.0)
        p = model.derive_params(10, 1.0, 1.0)
        theory.chernoff_upper(p.m, p.n, p.p, p.mu, 2, 0.5)
        theory.chernoff_lower(p.m, p.n, p.p, p.mu, 2, 0.5)
        degree.cpoisson_pmf(degree.CompoundPoissonSpec(1.0, 1.0), 40)
        degree.rig_pmf(p.m, p.n, p.p)

    def run_op(self, op: int) -> dict:
        p = self.params
        return {
            "rho": [theory.solve_extinction(b, g).rho for b, g in self.ladder],
            "upper": theory.chernoff_upper(p.m, p.n, p.p, p.mu, self.k, self.delta).bound,
            "lower": theory.chernoff_lower(p.m, p.n, p.p, p.mu, self.k, self.delta).bound,
            "cpoisson": degree.cpoisson_pmf(self.spec, self.kmax),
            "rig": degree.rig_pmf(p.m, p.n, p.p),
        }


WORKLOADS = {"trial_giant": TrialGiant, "sweep_transition": SweepTransition,
             "theory_ladder": TheoryLadder}
