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

# scipy.stats and mpmath are imported inside the functions that use them:
# together they add about 40 MiB and 0.7 s to `import riglab`, and no trial,
# sweep or summary needs them.

__all__ = [
    "DegreePmf",
    "CompoundPoissonSpec",
    "EXACT_PMF_MAX_N",
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

# beyond this the alternating coefficient-extraction sum is refused; use the
# empirical mode or the generating function (stable on [0,1]) instead
EXACT_PMF_MAX_N = 200


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
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"pmf plus tail sums to {total}, not 1")

    @property
    def kmax(self) -> int:
        return len(self.probs) - 1

    def mean(self) -> float:
        """Mean over the explicit support (the tail atom contributes nothing)."""
        return float(np.arange(len(self.probs)) @ self.probs)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

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

    @property
    def mean(self) -> float:
        return self.lambda1 * self.lambda2


# ---------------------------------------------------------------------------
# intersection-graph degree law (simple projection)
# ---------------------------------------------------------------------------

def _one_minus_p_pow(p: float, e: np.ndarray) -> np.ndarray:
    """(1-p)^e computed stably, elementwise over integer exponents e >= 0."""
    if p == 1.0:
        return (e == 0).astype(float)
    return np.exp(e * math.log1p(-p))


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
    from scipy import stats

    j = np.arange(n)
    w = stats.binom.pmf(j, n - 1, z)
    e = n - 1 - j
    if m == 0:
        return float(w.sum())
    one_minus_t = -np.expm1(e * math.log1p(-p)) if p < 1.0 else (e != 0).astype(float)
    with np.errstate(divide="ignore"):
        log_inner = np.log1p(-p * one_minus_t)  # log[1 - p(1 - (1-p)^e)]
    return float(w @ np.exp(m * log_inner))


def _rig_pmf_exact(m: int, n: int, p: float) -> DegreePmf:
    """Coefficient extraction from the degree gf in extended precision.

    P(D=k) = sum_{j<=k} C(n-1,j) C(n-1-j,k-j) (-1)^(k-j) F_j with
    F_j = [1-p+p(1-p)^(n-1-j)]^m.  Alternating, so run under enough digits
    that the cancellation (up to ~3^n between term and result) is harmless.
    """
    import mpmath

    dps = 30 + int(0.5 * n) + 10
    with mpmath.workdps(dps):
        mp_p = mpmath.mpf(p)
        F = [(1 - mp_p + mp_p * (1 - mp_p) ** (n - 1 - j)) ** m for j in range(n)]
        probs = np.empty(n)
        for k in range(n):
            acc = mpmath.mpf(0)
            for j in range(k + 1):
                c = math.comb(n - 1, j) * math.comb(n - 1 - j, k - j)
                term = mpmath.mpf(c) * F[j]
                acc = acc + term if (k - j) % 2 == 0 else acc - term
            probs[k] = float(acc)
    if probs.min() < -1e-8 or probs.max() > 1 + 1e-8:
        raise ArithmeticError(
            f"cancellation out of tolerance: pmf entries in "
            f"[{probs.min()}, {probs.max()}] for (m={m}, n={n}, p={p})")
    return DegreePmf(np.clip(probs, 0.0, 1.0))


def _rig_pmf_empirical(m: int, n: int, p: float, rng: np.random.Generator,
                       samples: int) -> DegreePmf:
    """Degree frequencies over sampled graphs; ceil(samples/n) graphs, all
    vertices of each graph contribute one sample."""
    graphs = -(-samples // n)
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(graphs):
        g = project_simple(sample_aux_lists(n, m, p, rng))
        c = np.bincount(g.degrees(), minlength=1)
        if len(c) > len(counts):
            counts = np.pad(counts, (0, len(c) - len(counts)))
        counts[:len(c)] += c
    return DegreePmf(counts / counts.sum())


def rig_pmf(m: int, n: int, p: float, mode: str = "exact",
            rng: np.random.Generator | None = None,
            samples: int | None = None) -> DegreePmf:
    """Degree pmf of the simple projection, exact or sampled.

    Exact mode is limited to n <= EXACT_PMF_MAX_N and fails loudly if the
    alternating sum cancels beyond tolerance.  Empirical mode needs rng and a
    vertex sample count.
    """
    if mode == "exact":
        if n > EXACT_PMF_MAX_N:
            raise ValueError(
                f"exact pmf limited to n <= {EXACT_PMF_MAX_N} (got n={n}); "
                "use mode='empirical'")
        return _rig_pmf_exact(m, n, p)
    if mode == "empirical":
        if rng is None or samples is None:
            raise ValueError("empirical mode requires rng and samples")
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
    N = rng.binomial(m, p, size=size)
    if p == 1.0:
        q = (N > 0).astype(float) if size is not None else float(N > 0)
    else:
        q = -np.expm1(N * math.log1p(-p))
    return rng.binomial(n - 1, q)


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
    from scipy import stats

    jmax = int(stats.poisson.ppf(1.0 - 1e-12, l1)) + 1
    js = np.arange(jmax + 1)
    w = stats.poisson.pmf(js, l1)
    mat = stats.poisson.pmf(ks[None, :], (js * l2)[:, None])
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
    degree Binomial(N(n-1), p).  Support is finite (<= m(n-1))."""
    top = m * (n - 1)
    if kmax is None:
        kmax = top
    from scipy import stats

    ks = np.arange(kmax + 1)
    a = np.arange(m + 1)
    w = stats.binom.pmf(a, m, p)
    mat = stats.binom.pmf(ks[None, :], (a * (n - 1))[:, None], p)
    probs = w @ mat
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
