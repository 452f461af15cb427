"""Reference computations that share no code path with the package.

Brute-force enumeration over all 2^(n*m) bipartite graphs: each (vertex,
auxiliary) incidence is one coin; a configuration is a tuple of m bitmasks
over the n vertices, weighted by p^edges (1-p)^(n*m - edges).  Degrees and
edge sets are recomputed from raw bitmasks.

Coefficient extraction from the degree generating function under mpmath
extended precision, for n beyond the reach of enumeration.

Builders of the package's graph types from plain lists, with their input
checks, and reference parsers of its text outputs, for tests only.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from riglab.degree import DegreePmf
from riglab.model import BipartiteGraph, SimpleGraph


def configurations(n: int, m: int):
    """All auxiliary-membership configurations as tuples of bitmasks."""
    return itertools.product(range(2 ** n), repeat=m)


def config_weight(masks, n: int, p: float) -> float:
    edges = sum(bin(mk).count("1") for mk in masks)
    return p ** edges * (1.0 - p) ** (n * len(masks) - edges)


def simple_degree_of_v0(masks) -> int:
    """Degree of vertex 0 in the deduplicated projection."""
    nb = 0
    for mk in masks:
        if mk & 1:
            nb |= mk
    return bin(nb & ~1).count("1")


def multi_degree_of_v0(masks) -> int:
    """Degree of vertex 0 in the multigraph projection (with multiplicity)."""
    return sum(bin(mk).count("1") - 1 for mk in masks if mk & 1)


def simple_edge_count(masks, n: int) -> int:
    pairs = set()
    for mk in masks:
        vs = [v for v in range(n) if (mk >> v) & 1]
        pairs.update((vs[i], vs[j])
                     for i in range(len(vs)) for j in range(i + 1, len(vs)))
    return len(pairs)


def exact_degree_pmf(n: int, m: int, p: float) -> np.ndarray:
    """P(simple-projection degree of a fixed vertex = k), k = 0..n-1."""
    probs = np.zeros(n)
    for masks in configurations(n, m):
        probs[simple_degree_of_v0(masks)] += config_weight(masks, n, p)
    return probs


def alternating_degree_pmf(m: int, n: int, p: float) -> np.ndarray:
    """P(simple-projection degree = k), k = 0..n-1, by coefficient extraction.

    P(D=k) = sum_{j<=k} C(n-1,j) C(n-1-j,k-j) (-1)^(k-j) F_j with
    F_j = [1-p+p(1-p)^(n-1-j)]^m.  Alternating, so run under enough digits
    that the cancellation (up to ~3^n between term and result) is harmless;
    about n^2/2 multiprecision terms, so keep n in the hundreds.
    """
    import mpmath

    with mpmath.workdps(40 + n // 2):
        mp_p = mpmath.mpf(p)
        F = [(1 - mp_p + mp_p * (1 - mp_p) ** (n - 1 - j)) ** m for j in range(n)]
        probs = np.empty(n)
        for k in range(n):
            acc = mpmath.mpf(0)
            for j in range(k + 1):
                term = math.comb(n - 1, j) * math.comb(n - 1 - j, k - j) * F[j]
                acc = acc + term if (k - j) % 2 == 0 else acc - term
            probs[k] = float(acc)
    return probs


def degree_gf_by_marks(m: int, n: int, p: float, z: float) -> float:
    """E[z^D] for the simple-projection degree, z in [0, 1], summed over degrees.

    Mark each other vertex with chance 1 - z: z^D is the chance that v0 has
    no marked neighbour, which, given n-1-j marked vertices, is F_j of
    alternating_degree_pmf.  So E[z^D] = sum_j Bin(n-1, z)(j) F_j, n terms, all
    non-negative: float64 keeps a relative error near m * eps at any size of
    the result.
    """
    from scipy.stats import binom

    j = np.arange(n)
    marked_cover = -np.expm1((n - 1 - j) * math.log1p(-p))
    return float(binom.pmf(j, n - 1, z) @ np.exp(m * np.log1p(-p * marked_cover)))


def exact_multi_degree_pmf(n: int, m: int, p: float) -> np.ndarray:
    """P(multigraph degree of a fixed vertex = k), k = 0..m*(n-1)."""
    probs = np.zeros(m * (n - 1) + 1)
    for masks in configurations(n, m):
        probs[multi_degree_of_v0(masks)] += config_weight(masks, n, p)
    return probs


def exact_edge_count_pmf(n: int, m: int, p: float) -> np.ndarray:
    """P(simple-projection edge count = e), e = 0..C(n,2)."""
    probs = np.zeros(n * (n - 1) // 2 + 1)
    for masks in configurations(n, m):
        probs[simple_edge_count(masks, n)] += config_weight(masks, n, p)
    return probs


def exact_eta_mean(n: int, m: int, p: float) -> float:
    """E[multi-edge excess] = C(n,2) * (m p^2 - 1 + (1-p^2)^m), evaluated
    through expm1/log1p to survive the near-cancelling large-n regime."""
    if m == 0 or p == 0.0:
        return 0.0
    tail = math.expm1(m * math.log1p(-p * p)) if p < 1.0 else -1.0
    return n * (n - 1) / 2.0 * (m * p * p + tail)


def fill_distinct_loop(rng: np.random.Generator, n: int, d: int,
                       first: np.ndarray) -> np.ndarray:
    """The first d distinct values of `first` followed by uniform draws from
    range(n), sorted: a member-by-member loop over the same batches (each of
    d minus the distinct count so far, plus 2) that model._fill_distinct
    draws."""
    out: list[int] = []
    seen: set[int] = set()
    for x in first.tolist():
        if x not in seen:
            seen.add(x)
            out.append(x)
    while len(out) < d:
        batch = rng.integers(0, n, size=d - len(out) + 2)
        for x in batch.tolist():
            if x not in seen:
                seen.add(x)
                out.append(x)
                if len(out) == d:
                    break
    return np.sort(np.asarray(out, dtype=np.int64))


def sample_aux_lists_loop(n: int, m: int, p: float,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, members) of model.sample_aux_lists, auxiliary by auxiliary,
    making the same generator calls in its documented order: m binomial
    degrees; one bulk draw of every light (2d < n) list, in auxiliary order;
    then, in ascending auxiliary order, each light list whose draws hold a
    duplicate completed by fill_distinct_loop from those draws; then each
    heavy list as the first d entries of a permutation of range(n)."""
    degrees = rng.binomial(n, p, size=m).tolist()
    flat = rng.integers(0, n, size=sum(d for d in degrees if 2 * d < n)).tolist()
    lists: list[list[int]] = []
    pos = 0
    for d in degrees:
        if 2 * d < n:
            lists.append(flat[pos:pos + d])
            pos += d
        else:
            lists.append([])
    for k, d in enumerate(degrees):
        if 2 * d < n and len(set(lists[k])) < d:
            lists[k] = fill_distinct_loop(rng, n, d, np.asarray(lists[k])).tolist()
    for k, d in enumerate(degrees):
        if 2 * d >= n:
            lists[k] = rng.permutation(n)[:d].tolist()
    offsets = np.zeros(m + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(degrees)
    members = np.array([x for lst in lists for x in sorted(lst)], dtype=np.int64)
    return offsets, members


def cpoisson_log_pmf(lambda1: float, lambda2: float, kmax: int,
                     jmax: int = 6000) -> np.ndarray:
    """log P(X = k), k = 0..kmax, for X a Poisson(lambda1) sum of i.i.d.
    Poisson(lambda2) variables: a log-sum-exp over every outer count j <= jmax
    of log Poisson(lambda1)(j) + log Poisson(j lambda2)(k), in blocks of 100
    degrees to keep the (jmax x 100) terms small."""
    from scipy.special import gammaln, logsumexp

    j = np.arange(1, jmax + 1)[:, None]
    log_w = j * math.log(lambda1) - lambda1 - gammaln(j + 1)
    out = np.empty(kmax + 1)
    for lo in range(0, kmax + 1, 100):
        k = np.arange(lo, min(lo + 100, kmax + 1))
        out[k] = logsumexp(log_w + k * np.log(j * lambda2) - j * lambda2 - gammaln(k + 1),
                           axis=0)
    out[0] = np.logaddexp(out[0], -lambda1)  # j = 0: the total is 0
    return out


# ---------------------------------------------------------------------------
# test builders and reference parsers
# ---------------------------------------------------------------------------

def validate_bipartite(b: BipartiteGraph) -> None:
    """Check the CSR invariants: offsets start at 0 and never decrease, and
    each list is strictly increasing in range(n); raises ValueError."""
    if b.offsets[0] != 0 or np.any(np.diff(b.offsets) < 0):
        raise ValueError("offsets must start at 0 and be non-decreasing")
    for lst in b.lists():
        if lst.size and (lst[0] < 0 or lst[-1] >= b.n or np.any(np.diff(lst) <= 0)):
            raise ValueError(f"list {lst.tolist()} is not strictly increasing in range({b.n})")


def _bipartite(n: int, lists) -> BipartiteGraph:
    arrs = [np.asarray(lst, dtype=np.int64) for lst in lists]
    offsets = np.zeros(len(arrs) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(a) for a in arrs])
    members = np.concatenate(arrs) if arrs else np.empty(0, dtype=np.int64)
    b = BipartiteGraph(n=n, offsets=offsets, members=members)
    validate_bipartite(b)
    return b


def bipartite_from_lists(n: int, lists) -> BipartiteGraph:
    """The bipartite graph whose auxiliary k holds the vertices of lists[k],
    each list sorted; raises ValueError on a repeated or out-of-range vertex."""
    return _bipartite(n, [sorted(lst) for lst in lists])


def simple_from_edges(n: int, pairs) -> SimpleGraph:
    """The simple graph on range(n) with the given undirected edges, repeats
    merged; raises ValueError on a self-loop or an out-of-range vertex."""
    norm = sorted({(min(a, b), max(a, b)) for a, b in pairs})
    for a, b in norm:
        if a == b:
            raise ValueError(f"self-loop {a} not allowed")
        if a < 0 or b >= n:
            raise ValueError(f"edge ({a},{b}) out of range for n={n}")
    u = np.array([e[0] for e in norm], dtype=np.int64)
    v = np.array([e[1] for e in norm], dtype=np.int64)
    return SimpleGraph(n, u, v)


def read_dump(text: str) -> BipartiteGraph:
    """Parse the bipartite dump: an "n m" header, m lines of strictly
    increasing vertex indices, then one blank line and nothing more; raises
    ValueError on any other shape."""
    lines = text.split("\n")
    n, m = map(int, lines[0].split())
    if lines[1 + m:] != ["", ""]:
        raise ValueError(f"expected {m} lists, one blank line and the end of the dump")
    return _bipartite(n, [[int(t) for t in line.split()] for line in lines[1:1 + m]])


def read_degree_csv(text: str) -> DegreePmf:
    """Parse a degree pmf CSV: the "degree,probability" header, one row per
    degree from 0 up, and a final "tail" row; raises ValueError on any other
    shape."""
    rows = [line.split(",") for line in text.splitlines()]
    if rows[0] != ["degree", "probability"] or rows[-1][0] != "tail":
        raise ValueError("expected the degree,probability header and a final tail row")
    if [r[0] for r in rows[1:-1]] != [str(k) for k in range(len(rows) - 2)]:
        raise ValueError("degree rows must be consecutive from 0")
    return DegreePmf(np.array([float(r[1]) for r in rows[1:-1]]), float(rows[-1][1]))
