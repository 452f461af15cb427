"""Degree distributions: exact generating functions, pmfs, moments, samplers.

Covers the intersection-graph degree law (finite n), its compound Poisson
limit, and the compound binomial law of the multigraph projection.  All three
pmfs are one mixture block (_mixture_pmf) of binomial or Poisson rows, with a
size budget and each row's exact tail mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

# scipy.special is imported inside the functions that use it: with the scipy
# core it loads, it would add about 23 MiB to `import riglab`, and no trial,
# sweep or summary needs it.

__all__ = [
    "DegreePmf",
    "CompoundPoissonSpec",
    "EXACT_PMF_BUDGET",
    "rig_gf",
    "rig_pmf",
    "rig_moments",
    "rig_degree_sample",
    "cpoisson_gf",
    "cpoisson_pmf",
    "cpoisson_sample",
    "rimg_log_gf",
    "rimg_pmf",
    "tv_distance",
]

# most mixture entries (rows x degrees computed, plus the n returned) the exact
# pmf may hold; its ~10 float64 temporaries of that size stay under 400 MB
EXACT_PMF_BUDGET = 5_000_000
# Bin(m, p) weight below which the exact pmf drops a row of its mixture
_MIXTURE_CUT = 1e-20
# log j! - log(sqrt(2 pi j) (j/e)^j) for j = 0..15 (0 at j = 0 by convention)
_STIRLERR = np.array([0.0] + [math.lgamma(j + 1.0) - (j + 0.5) * math.log(j) + j
                              - 0.5 * math.log(2.0 * math.pi) for j in range(1, 16)])


@dataclass
class DegreePmf:
    """Finite pmf over degrees 0..kmax with explicit tail mass beyond kmax."""

    probs: np.ndarray
    tail: float = 0.0

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise ValueError("probs must be a non-empty 1-d array")
        if self.probs.min() < 0 or self.tail < 0:
            raise ValueError("probabilities and tail mass must be non-negative")
        total = float(self.probs.sum()) + self.tail
        if not abs(total - 1.0) <= 1e-10:  # also rejects NaN
            raise ValueError(f"pmf plus tail sums to {total}, not 1")

    def mean(self) -> float:
        """Mean over the explicit support (the tail atom contributes nothing)."""
        return float(np.arange(len(self.probs)) @ self.probs)

    def write_csv(self, f: IO[str]) -> None:
        f.write("degree,probability\n")
        for k, q in enumerate(self.probs.tolist()):
            f.write(f"{k},{q!r}\n")
        f.write(f"tail,{float(self.tail)!r}\n")


@dataclass(frozen=True)
class CompoundPoissonSpec:
    """Sum of Poisson(lambda1)-many i.i.d. Poisson(lambda2) variables."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {rate}")


# ---------------------------------------------------------------------------
# intersection-graph degree law (simple projection)
# ---------------------------------------------------------------------------

def _binom_pmf(k, size, p) -> np.ndarray:
    """Binomial(size, p) pmf at k, broadcasting, in Loader's saddle-point form
    (2000): relative error near 1e-13 at any size, where the log-gamma form
    loses eps * log(size!), 3e-10 at size 1e5."""
    from scipy.special import xlog1py, xlogy

    def stirlerr(j):  # log j! - log(sqrt(2 pi j) (j/e)^j) for j >= 1
        jj = np.maximum(j, 16.0) ** 2
        series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * jj)) / jj) / jj) / jj)
        return np.where(j < 16, _STIRLERR[np.clip(j, 0, 15).astype(np.intp)], series / np.sqrt(jj))

    def bd0(x, mean):  # x log(x/mean) + mean - x; an error in mean cancels to first order
        return xlog1py(x, (x - mean) / mean) - (x - mean)

    # no broadcast up front: the terms that do not depend on p keep the shape of k
    k, size, p = (np.asarray(a, dtype=float) for a in (k, size, p))
    r = size - k
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lc = (stirlerr(size) - stirlerr(k) - stirlerr(r)
              - bd0(k, size * p) - bd0(r, size * (1.0 - p)))
        pmf = np.exp(lc) * np.sqrt(size / (2.0 * math.pi * k * r))
        pmf = np.where(k == 0, np.exp(xlog1py(size, -p)), pmf)
        pmf = np.where(r == 0, np.exp(xlogy(size, p)), pmf)
    return np.where(r < 0, 0.0, pmf)


def _bulk(size: int, p: float) -> tuple[int, int]:
    """[lo, hi] with under 1e-21 of Bin(size, p) on either side: Bernstein's
    inequality bounds each side, at 10 sd + 33 from the mean, by exp(-49.5)."""
    mean, t = size * p, 10.0 * math.sqrt(size * p * (1.0 - p)) + 33.0
    return max(0, math.floor(mean - t)), min(size, math.ceil(mean + t))


def _cover_prob(p: float, N):
    """1 - (1-p)^N: the chance that another vertex shares one of N auxiliaries."""
    if p == 1.0:
        return (np.asarray(N) > 0).astype(float)
    return -np.expm1(N * math.log1p(-p))


def _mixture_pmf(nrows: int, kmax: int, length: int, law) -> DegreePmf:
    """sum_j w_j f_j(k) on k = 0..kmax, zero-padded to `length`, where law(ks)
    gives the row weights w, the weight set aside, the rows' pmfs f_j on ks and
    each row's exact mass beyond kmax.  The tail is the set-aside weight plus
    w @ (mass beyond kmax), not 1 - sum(probs), which is rounding noise; no row
    is cut, as the far tail rests on rows of tiny weight.  Refuses nrows x
    (kmax+1) entries plus `length` over EXACT_PMF_BUDGET before calling law."""
    if nrows * (kmax + 1) + length > EXACT_PMF_BUDGET:
        raise ValueError(
            f"exact pmf needs {nrows} x {kmax + 1} mixture entries plus {length} "
            f"degrees, over the budget of {EXACT_PMF_BUDGET}")
    w, set_aside, rows, beyond = law(np.arange(kmax + 1))
    probs = np.zeros(length)
    probs[:kmax + 1] = w @ rows
    return DegreePmf(probs, float(set_aside + w @ beyond))


def _binom_mixture(m: int, p: float, component, length: int, kmax: int | None = None) -> DegreePmf:
    """sum_N Bin(m,p)(N) Bin(component(N))(k) for k = 0..kmax (default: the
    bulk of the last row, which dominates), over the N in the bulk of Bin(m, p)
    weighing at least _MIXTURE_CUT, whose weight the rows cut set aside."""
    from scipy.special import bdtrc

    lo, hi = _bulk(m, p)
    kmax = _bulk(*component(hi))[1] if kmax is None else kmax

    def law(ks):
        N = np.arange(lo, hi + 1)
        w = _binom_pmf(N, m, p)
        keep = w >= _MIXTURE_CUT
        size, prob = (np.asarray(a) for a in component(N[keep]))
        # bdtrc(k, size, .) is NaN for k > size, where the mass beyond k is 0
        return (w[keep], w[~keep].sum(), _binom_pmf(ks, size[..., None], prob[..., None]),
                bdtrc(np.minimum(ks[-1], size), size, prob))
    return _mixture_pmf(hi - lo + 1, kmax, length, law)


def rig_gf(m: int, n: int, p: float, z: float) -> float:
    """Probability generating function of the simple-projection degree law.

    sum_N Bin(m,p)(N) (1 - q_N (1-z))^(n-1), q_N = 1 - (1-p)^N, over every N
    up to the top of the bulk of Bin(m, p), with no row of small weight cut,
    as at z < 1 such rows can carry most of the sum.  Summands are non-negative
    and fall as N grows, so the rows above the bulk weigh under 1e-21 of the
    sum, and the cost does not grow with n.  Rejects z outside [0, 1].
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z must be in [0,1], got {z}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    from scipy.special import xlog1py

    rows = np.arange(_bulk(m, p)[1] + 1)
    # xlog1py keeps (1 - q(1-z))^0 = 1 at n = 1 even where the base is 0
    return float(_binom_pmf(rows, m, p)
                 @ np.exp(xlog1py(n - 1, -_cover_prob(p, rows) * (1.0 - z))))


def rig_pmf(m: int, n: int, p: float) -> DegreePmf:
    """Exact degree pmf of the simple projection.

    The mixture P(D=k) = sum_N Bin(m,p)(N) Bin(n-1, 1-(1-p)^N)(k), whose terms
    are all non-negative, up to the bulk of its last row, which dominates the
    others; it returns n entries and refuses a mixture block larger than
    EXACT_PMF_BUDGET.  experiments.empirical_degree_pmf samples the same law
    from whole graphs.
    """
    return _binom_mixture(m, p, lambda N: (n - 1, _cover_prob(p, N)), n)


def rig_moments(m: int, n: int, p: float) -> tuple[float, float]:
    """Mean and second factorial moment of the simple-projection degree.

    mean            = (n-1)[1 - (1-p^2)^m]
    E[D(D-1)]       = (n-1)(n-2)[1 - 2(1-p^2)^m + (1-p^2(2-p))^m]

    Both are evaluated through expm1/log1p so the near-cancelling regime
    (p ~ 1/n, m ~ n) keeps full relative precision.
    """
    if m == 0 or p == 0.0:
        return 0.0, 0.0
    a = m * math.log1p(-p * p) if p < 1.0 else -math.inf
    q = p * p * (2.0 - p)
    b = m * math.log1p(-q) if q < 1.0 else -math.inf
    mean = (n - 1) * -math.expm1(a)
    second = (n - 1) * (n - 2) * (math.expm1(b) - 2.0 * math.expm1(a))
    return mean, second


def rig_degree_sample(m: int, n: int, p: float, rng: np.random.Generator,
                      size: int | None = None):
    """Draw from the simple-projection degree law without building a graph.

    Conditional on the vertex touching N ~ Binomial(m, p) auxiliaries, each of
    the other n-1 vertices is a neighbour independently with probability
    1 - (1-p)^N, so D | N ~ Binomial(n-1, 1-(1-p)^N).
    """
    return rng.binomial(n - 1, _cover_prob(p, rng.binomial(m, p, size=size)))


# ---------------------------------------------------------------------------
# compound Poisson limit
# ---------------------------------------------------------------------------

def cpoisson_gf(spec: CompoundPoissonSpec, s: float) -> float:
    """exp{lambda1 (e^{lambda2 (s-1)} - 1)} for s in [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must be in [0,1], got {s}")
    return math.exp(spec.lambda1 * math.expm1(spec.lambda2 * (s - 1.0)))


def cpoisson_pmf(spec: CompoundPoissonSpec, kmax: int | None = None) -> DegreePmf:
    """Compound Poisson pmf on 0..kmax with its exact tail mass beyond kmax.

    The mixture over j ~ Poisson(lambda1) of Poisson(j lambda2), on rows
    j = 0..J with the mass beyond J set aside.  J covers the bulk (mean + 10 sd
    + 33) of Poisson(lambda1) and of the outer count kmax/lambda2 that a total
    near kmax needs, so the far tail keeps its relative accuracy, but stops
    where the weight w_j = Poisson(lambda1)(j) falls below the smallest
    double: the rows beyond would add exactly 0.  kmax defaults to the mean
    plus 12 sd plus 20.  Refuses (J+1) x (kmax+1) entries over
    EXACT_PMF_BUDGET, and a tail mass over 0.1.
    """
    l1, l2 = spec.lambda1, spec.lambda2
    if kmax is None:
        kmax = math.ceil(l1 * l2 + 12.0 * math.sqrt(max(l1 * l2 * (1.0 + l2), 1e-12)) + 20)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    from scipy.special import gammaln, pdtrc, xlogy

    J = _last_weighty_row(l1)
    if l2 > 0:
        x = max(l1, kmax / l2)
        J = min(J, math.ceil(x + 10.0 * math.sqrt(x) + 33.0))

    def law(ks):
        js = np.arange(J + 1)
        mu = js * l2
        # Poisson(mu) pmfs from an outer product; column 0 is exp(-mu), also at mu = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = np.multiply.outer(np.log(mu), ks)
        rows -= mu[:, None]
        rows -= gammaln(ks + 1)
        np.exp(rows, out=rows)
        rows[:, 0] = np.exp(-mu)
        return (np.exp(xlogy(js, l1) - l1 - gammaln(js + 1)), pdtrc(J, l1),
                rows, pdtrc(ks[-1], mu))
    pmf = _mixture_pmf(J + 1, kmax, kmax + 1, law)
    if pmf.tail > 0.1:
        raise ValueError(f"kmax={kmax} leaves tail mass {pmf.tail}; enlarge kmax")
    return pmf


def _last_weighty_row(l1: float) -> int:
    """The last j whose Poisson(l1) weight exp(j log l1 - l1 - log j!) is
    above e^-746, below which a double underflows to 0.  The weight falls
    from j = floor(l1) on and is under (e l1 / j)^j, below e^-746 at
    j = max(6 l1, 1000), so a bisection between the two finds it."""
    if l1 == 0:
        return 0
    lo, hi = math.floor(l1), math.ceil(max(6.0 * l1, 1000.0))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * math.log(l1) - l1 - math.lgamma(mid + 1) > -746.0:
            lo = mid
        else:
            hi = mid
    return lo


def cpoisson_sample(spec: CompoundPoissonSpec, rng: np.random.Generator,
                    size: int | None = None):
    """Sample the compound Poisson total: N ~ Poisson(lambda1), then the exact
    identity that N i.i.d. Poisson(lambda2) variables sum to Poisson(N*lambda2)."""
    N = rng.poisson(spec.lambda1, size=size)
    return rng.poisson(spec.lambda2 * N)


# ---------------------------------------------------------------------------
# multigraph degree law (compound binomial)
# ---------------------------------------------------------------------------

def rimg_log_gf(m: int, n: int, p: float, z: float) -> float:
    """log of the multigraph-degree generating function, any z >= 0.

    The gf (1-p+p(1-p+pz)^(n-1))^m is a polynomial with non-negative
    coefficients, so z > 1 is legitimate; this powers the upper Chernoff
    bound.  Everything stays in log space to dodge overflow.
    """
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    if m == 0 or p == 0.0:
        return 0.0
    if p == 1.0 and z == 0.0:
        # degree is surely n-1; gf(0) = 0 for n >= 2, 1 for n == 1
        return 0.0 if n == 1 else -math.inf
    a = (n - 1) * math.log1p(p * (z - 1.0))  # (n-1) log(1-p+pz)
    if p == 1.0:
        return m * a
    # log(1 - p + p e^a) via logaddexp for stability at any magnitude of a
    return float(m * np.logaddexp(math.log1p(-p), math.log(p) + a))


def rimg_pmf(m: int, n: int, p: float, kmax: int | None = None) -> DegreePmf:
    """Exact compound binomial pmf on 0..kmax (default m(n-1), all the support):
    N ~ Binomial(m, p) auxiliaries, then degree Binomial(N(n-1), p), on the
    mixture rows of rig_pmf.  Refuses a mixture block over EXACT_PMF_BUDGET."""
    kmax = m * (n - 1) if kmax is None else kmax
    return _binom_mixture(m, p, lambda N: (N * (n - 1), p), kmax + 1, kmax)


# ---------------------------------------------------------------------------
# comparison metric
# ---------------------------------------------------------------------------

def tv_distance(a: DegreePmf, b: DegreePmf) -> float:
    """Total variation over the union support.

    Tail masses are compared as if both sit on one shared out-of-support
    atom, contributing |tail_a - tail_b| / 2; this keeps tv(p, p) == 0 and is
    immaterial whenever tails are tiny (the intended regime).
    """
    k = max(len(a.probs), len(b.probs))
    pa = np.pad(a.probs, (0, k - len(a.probs)))
    pb = np.pad(b.probs, (0, k - len(b.probs)))
    return 0.5 * (float(np.abs(pa - pb).sum()) + abs(a.tail - b.tail))
