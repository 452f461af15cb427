"""Analytic predictions: limiting generating function, extinction fixed point,
branching-process total sizes, and optimized exponential tail bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degree import (CompoundPoissonSpec, cpoisson_gf, cpoisson_sample,
                     rig_degree_sample, rig_gf, rimg_log_gf)

__all__ = [
    "FixedPointResult",
    "TailBound",
    "limit_degree_gf",
    "solve_extinction",
    "CompoundPoissonOffspring",
    "RigDegreeOffspring",
    "branching_total",
    "extinction_mc",
    "chernoff_upper",
    "chernoff_lower",
]


def limit_degree_gf(beta: float, gamma: float, s: float) -> float:
    """Generating function of the limiting compound Poisson degree law,
    exp{beta*gamma (e^{gamma(s-1)} - 1)}, for s in [0, 1]."""
    return cpoisson_gf(CompoundPoissonSpec(beta * gamma, gamma), s)


@dataclass(frozen=True)
class FixedPointResult:
    """Smallest non-negative root of rho = g(rho) with solver diagnostics."""

    rho: float
    residual: float
    iterations: int
    regime: str  # subcritical | critical | supercritical, by mu vs 1
    mu: float
    converged: bool


def solve_extinction(beta: float, gamma: float, tol: float = 1e-13,
                     max_iter: int = 100_000) -> FixedPointResult:
    """Solve rho = g(rho) by monotone fixed-point iteration from 0.

    The iterates increase to the smallest root.  For mu <= 1 the smallest
    root is exactly 1 (g > identity below 1), so the returned rho is snapped
    to 1 after the iteration confirms convergence toward it.  For mu > 1 the
    contraction is geometric; if the iteration cap is ever hit, bisection on
    g(x) - x over [0, 1] takes over.
    """
    if beta < 0 or gamma < 0:
        raise ValueError("beta and gamma must be non-negative")
    mu = beta * gamma * gamma
    spec = CompoundPoissonSpec(beta * gamma, gamma)

    def g(x: float) -> float:
        return cpoisson_gf(spec, x)

    x = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        nx = g(x)
        if abs(nx - x) < tol:
            x = nx
            converged = True
            break
        x = nx

    if not converged:
        # slow contraction (only near mu = 1): bisect on the sign change if any
        grid = np.linspace(0.0, 1.0, 1025)
        vals = np.array([g(t) - t for t in grid])
        neg = np.flatnonzero(vals < 0)
        if neg.size == 0:
            x = 1.0  # no root below 1
        else:
            lo, hi = grid[neg[0] - 1], grid[neg[0]]
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if g(mid) - mid > 0:
                    lo = mid
                else:
                    hi = mid
            x = 0.5 * (lo + hi)

    if mu <= 1.0:
        x = 1.0
    regime = "subcritical" if mu < 1.0 else ("critical" if mu == 1.0 else "supercritical")
    return FixedPointResult(rho=x, residual=abs(g(x) - x), iterations=iterations,
                            regime=regime, mu=mu, converged=converged)


# ---------------------------------------------------------------------------
# branching processes
# ---------------------------------------------------------------------------

class CompoundPoissonOffspring:
    """Offspring distributed as the compound Poisson limit."""

    def __init__(self, spec: CompoundPoissonSpec):
        self.spec = spec

    def sample(self, rng, size=None):
        return cpoisson_sample(self.spec, rng, size)

    def total_children(self, rng, pop: int) -> int:
        # the pooled offspring of a generation is itself compound Poisson:
        # Poisson(lambda2 * Poisson(pop * lambda1)), drawn in two scalar calls
        return int(rng.poisson(self.spec.lambda2 * rng.poisson(self.spec.lambda1 * pop)))


class RigDegreeOffspring:
    """Offspring distributed as the finite-n intersection-graph degree."""

    def __init__(self, m: int, n: int, p: float):
        self.m, self.n, self.p = m, n, p

    def sample(self, rng, size=None):
        return rig_degree_sample(self.m, self.n, self.p, rng, size)

    def total_children(self, rng, pop: int) -> int:
        return int(self.sample(rng, size=pop).sum())


# survival-vs-extinction cutoff used by the CLI and recommended elsewhere
DEFAULT_BRANCHING_CAP = 100_000


def branching_total(offspring, cap: int, rng: np.random.Generator) -> int | None:
    """Total progeny of a Galton-Watson process from one ancestor.

    Returns the total size if the process dies out without exceeding `cap`,
    else None (the survived marker).  Hitting the cap is counted as survival;
    the resulting bias is one-sided (overstates survival) and is negligible
    once cap is large compared to typical finite totals — double the cap to
    measure the sensitivity.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    total = 1
    pop = 1
    while pop > 0:
        children = offspring.total_children(rng, pop)
        total += children
        if total > cap:
            return None
        pop = children
    return total


def extinction_mc(offspring, reps: int, cap: int,
                  rng: np.random.Generator) -> tuple[float, float]:
    """Fraction of branching runs that die out, with binomial standard error."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    extinct = 0
    for _ in range(reps):
        if branching_total(offspring, cap, rng) is not None:
            extinct += 1
    est = extinct / reps
    se = math.sqrt(est * (1.0 - est) / reps)
    return est, se


# ---------------------------------------------------------------------------
# exponential tail bounds for i.i.d. partial sums
# ---------------------------------------------------------------------------

S_MAX = 5.0  # the exponent objective grows without bound well before this


@dataclass(frozen=True)
class TailBound:
    """Optimized Markov/Chernoff bound on a deviation of an i.i.d. sum.

    bound = min(f(s_opt), 1)^k where f is the one-step exponential moment
    expression; log_bound = k * min(log f(s_opt), 0) is exact in k.  vacuous
    marks the case where no s in (0, S_MAX] makes f < 1.
    """

    k: int
    delta: float
    direction: str  # upper | lower
    bound: float
    s_opt: float
    log_bound: float
    vacuous: bool


def _grid_golden_min(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Coarse grid to bracket the minimum, then golden-section refinement.

    The objectives here are convex (cumulant generating functions minus a
    linear term), so the bracketed golden section converges to the global
    minimum; the grid stage keeps this safe even near-degenerate shapes.
    """
    grid = np.linspace(lo, hi, 33).tolist()
    vals = [f(s) for s in grid]
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return float(x), float(f(x))


def chernoff_upper(m: int, n_eff: int, p: float, mu: float, k: int,
                   delta: float) -> TailBound:
    """Upper bound on P(sum of k i.i.d. degrees >= (1+delta) mu k).

    Minimizes f(s) = e^{-s(1+delta)mu} E[e^{sX}] over s in (0, S_MAX], where
    the exponential moment is taken under the multigraph (compound binomial)
    law with the same (m, n_eff, p) — it stochastically dominates the simple
    degree, and its gf stays evaluable at arguments above 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be > 0 for the upper tail")
    if mu <= 0:
        raise ValueError("mu must be > 0 (degenerate sums have no tail to bound)")

    def log_f(s: float) -> float:
        return -s * (1.0 + delta) * mu + rimg_log_gf(m, n_eff, p, math.exp(s))

    s_opt, val = _grid_golden_min(log_f, 1e-9, S_MAX)
    vacuous = val >= 0.0
    log_bound = k * min(val, 0.0)
    return TailBound(k=k, delta=delta, direction="upper", bound=math.exp(log_bound),
                     s_opt=s_opt, log_bound=log_bound, vacuous=vacuous)


def chernoff_lower(m: int, n_eff: int, p: float, mu: float, k: int,
                   delta: float) -> TailBound:
    """Upper bound on P(sum of k i.i.d. degrees <= (1-delta) mu k).

    Minimizes f(s) = e^{s(1-delta)mu} E[e^{-sX}] over s in (0, S_MAX]; the
    exponential moment is the exact simple-degree gf at e^{-s} in (0, 1),
    where its sum form is stable.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0,1) for the lower tail")
    if mu <= 0:
        raise ValueError("mu must be > 0 (degenerate sums have no tail to bound)")

    def log_f(s: float) -> float:
        return s * (1.0 - delta) * mu + math.log(rig_gf(m, n_eff, p, math.exp(-s)))

    s_opt, val = _grid_golden_min(log_f, 1e-9, S_MAX)
    vacuous = val >= 0.0
    log_bound = k * min(val, 0.0)
    return TailBound(k=k, delta=delta, direction="lower", bound=math.exp(log_bound),
                     s_opt=s_opt, log_bound=log_bound, vacuous=vacuous)
