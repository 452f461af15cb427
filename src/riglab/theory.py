"""Analytic predictions: extinction fixed point, branching-process total
sizes, and optimized exponential tail bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degree import CompoundPoissonSpec, cpoisson_sample, rig_degree_sample, rig_gf, rimg_log_gf
from .model import _mu

__all__ = [
    "FixedPointResult",
    "TailBound",
    "solve_extinction",
    "CompoundPoissonOffspring",
    "RigDegreeOffspring",
    "branching_total",
    "extinction_mc",
    "chernoff_upper",
    "chernoff_lower",
]


@dataclass(frozen=True)
class FixedPointResult:
    """Smallest non-negative root of rho = g(rho) with solver diagnostics.

    The root lies in ``bracket`` = (lo, hi), certified by the computed signs
    h(lo) > 0 >= h(hi) of h(x) = g(x) - x, and |rho - root| <= error_bound.
    For mu <= 1 the root is exactly 1 and the bracket is (1, 1).
    """

    rho: float
    residual: float
    iterations: int
    regime: str  # subcritical | critical | supercritical, by mu vs 1
    mu: float
    converged: bool
    bracket: tuple[float, float]
    error_bound: float


_MAX_NEWTON_STEPS = 100_000  # cap on solve_extinction's steps, which stop far sooner
_EXTINCTION_TOL = 1e-13  # solve_extinction's step size and certified error for converged
_BELOW_ONE = math.nextafter(1.0, 0.0)  # 1 - 2^-53, the largest double below 1


def solve_extinction(beta: float, gamma: float) -> FixedPointResult:
    """Solve rho = g(rho) by Newton's method on h(x) = g(x) - x from x = 0.

    For mu <= 1 the smallest root is exactly 1 (g > identity below 1).  For
    mu > 1, h is convex with h(0) > 0 and h' < 0 below the root, so the
    Newton iterates rise monotonically to it, quadratically once close; they
    stop once a step is below _EXTINCTION_TOL or h runs out of precision, and
    a step that reaches 1 lands on 1 - 2^-53, so a root within an ulp of 1 is
    still reached.  A search outward from the last iterate, in doubling steps,
    then brackets the root with signs of h that exceed its rounding error.
    rho is the last iterate, kept inside the bracket, so rho < 1 whenever
    mu > 1; converged means the certified error is at most _EXTINCTION_TOL.
    Raises ValueError if beta or gamma is NaN, infinite or negative, or if
    mu = beta * gamma**2 overflows.
    """
    if not (math.isfinite(beta) and math.isfinite(gamma)):
        raise ValueError(f"beta and gamma must be finite, got {beta}, {gamma}")
    if beta < 0 or gamma < 0:
        raise ValueError("beta and gamma must be non-negative")
    mu = _mu(beta, gamma)
    regime = "subcritical" if mu < 1.0 else ("critical" if mu == 1.0 else "supercritical")
    if mu <= 1.0:
        return FixedPointResult(rho=1.0, residual=0.0, iterations=0, regime=regime,
                                mu=mu, converged=True, bracket=(1.0, 1.0),
                                error_bound=0.0)
    l1, l2 = beta * gamma, gamma

    def h(x: float) -> tuple[float, float]:
        # h = (g - 1) + (1 - x): neither term loses precision near x = 1.
        # The rounding error is at most about 8 eps (|g - 1| + 1 - x) to
        # first order; twice that is the margin a sign must clear.
        a = math.expm1(l1 * math.expm1(l2 * (x - 1.0)))
        return a + (1.0 - x), 16.0 * math.ulp(1.0) * (abs(a) + 1.0 - x)

    x = 0.0
    for iterations in range(1, _MAX_NEWTON_STEPS + 1):
        t = math.expm1(l2 * (x - 1.0))
        dg = l1 * l2 * (1.0 + t) * math.exp(l1 * t)  # g'(x) < 1 below the root
        nx = min(x + h(x)[0] / (1.0 - dg), _BELOW_ONE)
        if not x < nx:  # h is below its precision here
            break
        step, x = nx - x, nx
        if step < _EXTINCTION_TOL:
            break

    # h(0) = g(0) > 0 and h(1) = 0 hold exactly, so both searches stop.
    # Since |h'| < 1 below the root, no step finer than the error of h helps.
    d0 = max(math.ulp(x), h(x)[1])
    lo, d = x, d0
    while lo > 0.0:
        v, err = h(lo)
        if v > err:
            break
        lo, d = max(lo - d, 0.0), 2.0 * d
    hi, d = lo, d0
    while hi < 1.0:
        v, err = h(hi)
        if v < -err:
            break
        hi, d = min(hi + d, 1.0), 2.0 * d
    rho = min(x, hi)
    bound = max(rho - lo, hi - rho)
    return FixedPointResult(rho=rho, residual=abs(h(rho)[0]), iterations=iterations,
                            regime=regime, mu=mu, converged=bound <= _EXTINCTION_TOL,
                            bracket=(lo, hi), error_bound=bound)


# ---------------------------------------------------------------------------
# branching processes
# ---------------------------------------------------------------------------

class CompoundPoissonOffspring:
    """Offspring distributed as the compound Poisson limit."""

    def __init__(self, spec: CompoundPoissonSpec):
        self.spec = spec

    def total_children(self, rng, pop: int) -> int:
        # the pooled offspring of a generation is CPoisson(pop * lambda1, lambda2)
        spec = CompoundPoissonSpec(self.spec.lambda1 * pop, self.spec.lambda2)
        return int(cpoisson_sample(spec, rng))


class RigDegreeOffspring:
    """Offspring distributed as the finite-n intersection-graph degree."""

    def __init__(self, m: int, n: int, p: float):
        self.m, self.n, self.p = m, n, p

    def total_children(self, rng, pop: int) -> int:
        return int(rig_degree_sample(self.m, self.n, self.p, rng, size=pop).sum())


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
_GOLDEN_TOL = 1e-10  # width at which _grid_golden_min stops refining


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


def _grid_golden_min(f, lo: float, hi: float) -> tuple[float, float]:
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
    while b - a > _GOLDEN_TOL:
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


def _chernoff(direction: str, k: int, delta: float, mu: float, log_f) -> TailBound:
    """The bound min(f, 1)^k for the objective log f over s in (0, S_MAX]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (math.isfinite(delta) and math.isfinite(mu)):
        raise ValueError(f"delta and mu must be finite, got {delta}, {mu}")
    if mu <= 0:
        raise ValueError("mu must be > 0 (degenerate sums have no tail to bound)")
    s_opt, val = _grid_golden_min(log_f, 1e-9, S_MAX)
    log_bound = k * min(val, 0.0)
    return TailBound(k=k, delta=delta, direction=direction, bound=math.exp(log_bound),
                     s_opt=s_opt, log_bound=log_bound, vacuous=val >= 0.0)


def chernoff_upper(m: int, n_eff: int, p: float, mu: float, k: int,
                   delta: float) -> TailBound:
    """Upper bound on P(sum of k i.i.d. degrees >= (1+delta) mu k).

    Minimizes f(s) = e^{-s(1+delta)mu} E[e^{sX}] over s in (0, S_MAX], where
    the exponential moment is taken under the multigraph (compound binomial)
    law with the same (m, n_eff, p) — it stochastically dominates the simple
    degree, and its gf stays evaluable at arguments above 1.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0 for the upper tail")
    return _chernoff("upper", k, delta, mu, lambda s: -s * (1.0 + delta) * mu
                     + rimg_log_gf(m, n_eff, p, math.exp(s)))


def chernoff_lower(m: int, n_eff: int, p: float, mu: float, k: int,
                   delta: float) -> TailBound:
    """Upper bound on P(sum of k i.i.d. degrees <= (1-delta) mu k).

    Minimizes f(s) = e^{s(1-delta)mu} E[e^{-sX}] over s in (0, S_MAX]; the
    exponential moment is the exact simple-degree gf at e^{-s} in (0, 1),
    where its sum form is stable.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0,1) for the lower tail")
    return _chernoff("lower", k, delta, mu, lambda s: s * (1.0 - delta) * mu
                     + math.log(rig_gf(m, n_eff, p, math.exp(-s))))
