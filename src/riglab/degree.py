"""Degree distributions: exact generating functions, pmfs, moments, samplers.

Covers the intersection-graph degree law (finite n), its compound Poisson
limit, and the compound binomial law of the multigraph projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .model import project_simple, sample_aux_lists

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
    "rimg_gf",
    "rimg_log_gf",
    "rimg_pmf",
    "rimg_sample",
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

    @classmethod
    def read_csv(cls, f: IO[str]) -> "DegreePmf":
        header = f.readline().strip()
        if header != "degree,probability":
            raise ValueError(f"unexpected header {header!r}")
        probs: list[float] = []
        tail = 0.0
        for line in f:
            key, val = line.strip().split(",")
            if key == "tail":
                tail = float(val)
            else:
                if int(key) != len(probs):
                    raise ValueError("degree rows must be consecutive from 0")
                probs.append(float(val))
        return cls(np.array(probs), tail)


@dataclass(frozen=True)
class CompoundPoissonSpec:
    """Sum of Poisson(lambda1)-many i.i.d. Poisson(lambda2) variables."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("rates must be non-negative")


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


def rig_gf(m: int, n: int, p: float, z: float) -> float:
    """Probability generating function of the simple-projection degree law.

    Sum over j of Binom(n-1, z) pmf times [1 - p + p(1-p)^(n-1-j)]^m; every
    summand is non-negative for z in [0, 1], so evaluation is stable there.
    Rejects z outside [0, 1].
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z must be in [0,1], got {z}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    from scipy.special import xlog1py

    j = np.arange(n)
    # [1 - p(1 - (1-p)^(n-1-j))]^m, which is 1 at m = 0 even where the base is 0
    return float(_binom_pmf(j, n - 1, z) @ np.exp(xlog1py(m, -p * _cover_prob(p, n - 1 - j))))


def _rig_pmf_mixture(m: int, n: int, p: float) -> DegreePmf:
    """P(D=k) = sum_N Bin(m,p)(N) Bin(n-1, 1-(1-p)^N)(k): no term is negative,
    so float64 suffices.  Rows N: the bulk of Bin(m, p), less rows weighing
    under _MIXTURE_CUT; degrees: the bulk of the last row, which dominates the
    others.  The tail holds the rows cut and the degrees beyond the bulk (the
    under 1e-21 of Bin(m, p) outside its bulk is not counted)."""
    from scipy.special import bdtrc

    lo, hi = _bulk(m, p)
    kmax = _bulk(n - 1, _cover_prob(p, hi))[1]
    if (hi - lo + 1) * (kmax + 1) + n > EXACT_PMF_BUDGET:
        raise ValueError(
            f"exact pmf needs {hi - lo + 1} x {kmax + 1} mixture entries plus {n} "
            f"degrees, over the budget of {EXACT_PMF_BUDGET}; use mode='empirical'")
    rows = np.arange(lo, hi + 1)
    w = _binom_pmf(rows, m, p)
    keep = w >= _MIXTURE_CUT
    q = _cover_prob(p, rows[keep])
    probs = np.zeros(n)
    probs[:kmax + 1] = w[keep] @ _binom_pmf(np.arange(kmax + 1), n - 1, q[:, None])
    tail = w[~keep].sum() + w[keep] @ bdtrc(kmax, n - 1, q)
    return DegreePmf(probs, float(tail))


def _rig_pmf_empirical(m: int, n: int, p: float, rng: np.random.Generator,
                       samples: int) -> DegreePmf:
    """Degree frequencies over sampled graphs; ceil(samples/n) graphs, all
    vertices of each graph contribute one sample."""
    counts = np.bincount(np.concatenate([
        project_simple(sample_aux_lists(n, m, p, rng)).degrees()
        for _ in range(-(-samples // n))]))
    return DegreePmf(counts / counts.sum())


def rig_pmf(m: int, n: int, p: float, mode: str = "exact",
            rng: np.random.Generator | None = None,
            samples: int | None = None) -> DegreePmf:
    """Degree pmf of the simple projection, exact or sampled.

    Exact mode returns n entries and refuses a mixture block larger than
    EXACT_PMF_BUDGET.  Empirical mode needs rng and a vertex sample count.
    """
    if mode == "exact":
        return _rig_pmf_mixture(m, n, p)
    if mode == "empirical":
        if rng is None or samples is None or samples < 1:
            raise ValueError("empirical mode requires rng and samples >= 1")
        return _rig_pmf_empirical(m, n, p, rng, samples)
    raise ValueError(f"unknown mode {mode!r}")


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


def cpoisson_pmf(spec: CompoundPoissonSpec, kmax: int) -> DegreePmf:
    """Truncated compound Poisson pmf with explicit tail mass.

    Outer Poisson(lambda1) sum truncated once its cumulative weight exceeds
    1 - 1e-12; conditional on j outer events the total is Poisson(j*lambda2).
    Rejects kmax so small that the tail mass exceeds 0.1.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    l1, l2 = spec.lambda1, spec.lambda2
    ks = np.arange(kmax + 1)
    if l1 == 0.0 or l2 == 0.0:
        probs = np.zeros(kmax + 1)
        probs[0] = 1.0
        return DegreePmf(probs)
    from scipy.special import gammaln, pdtr, pdtrik, xlogy

    def poisson_pmf(k, mu):  # as scipy.stats.poisson computes it
        return np.exp(xlogy(k, mu) - gammaln(k + 1) - mu)

    # the 1 - 1e-12 quantile of Poisson(l1), found as scipy.stats finds it
    j = max(math.ceil(pdtrik(1.0 - 1e-12, l1)) - 1, 0)
    jmax = (j if pdtr(j, l1) >= 1.0 - 1e-12 else j + 1) + 1
    js = np.arange(jmax + 1)
    w = poisson_pmf(js, l1)
    mat = poisson_pmf(ks[None, :], (js * l2)[:, None])
    mat[0] = 0.0
    mat[0, 0] = 1.0  # j=0: no summands, total is exactly 0
    probs = w @ mat
    tail = max(0.0, 1.0 - float(probs.sum()))
    if tail > 0.1:
        raise ValueError(f"kmax={kmax} leaves tail mass {tail}; enlarge kmax")
    return DegreePmf(probs, tail)


def cpoisson_sample(spec: CompoundPoissonSpec, rng: np.random.Generator,
                    size: int | None = None):
    """Sample the compound Poisson total.

    Uses N ~ Poisson(lambda1) and the exact identity that the sum of N i.i.d.
    Poisson(lambda2) variables is Poisson(N*lambda2).
    """
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


def rimg_gf(m: int, n: int, p: float, z: float) -> float:
    """Multigraph-degree generating function; rejects values outside the
    representable exponent range rather than overflowing."""
    lg = rimg_log_gf(m, n, p, z)
    if lg > 709.0:
        raise OverflowError(f"rimg_gf exponent {lg} exceeds float range")
    return math.exp(lg)


def rimg_pmf(m: int, n: int, p: float, kmax: int | None = None) -> DegreePmf:
    """Exact compound binomial pmf: N ~ Binomial(m, p) auxiliaries, total
    degree Binomial(N(n-1), p).  Support is finite (<= m(n-1)).  Refuses an
    (m+1) x (kmax+1) block of binomial pmfs larger than EXACT_PMF_BUDGET."""
    if kmax is None:
        kmax = m * (n - 1)
    if (m + 1) * (kmax + 1) > EXACT_PMF_BUDGET:
        raise ValueError(
            f"rimg pmf needs {m + 1} x {kmax + 1} binomial entries, over the "
            f"budget of {EXACT_PMF_BUDGET}")
    a = np.arange(m + 1)
    probs = _binom_pmf(a, m, p) @ _binom_pmf(np.arange(kmax + 1), (a * (n - 1))[:, None], p)
    tail = max(0.0, 1.0 - float(probs.sum()))
    return DegreePmf(probs, tail)


def rimg_sample(m: int, n: int, p: float, rng: np.random.Generator,
                size: int | None = None):
    """Sample the multigraph degree: Binomial(m, p) auxiliaries, then the
    exact identity sum of N Binomial(n-1, p) = Binomial(N(n-1), p)."""
    N = rng.binomial(m, p, size=size)
    return rng.binomial((n - 1) * N, p)


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
