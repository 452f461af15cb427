"""Bipartite sampling and one-mode projections for random intersection graphs.

A graph on n vertices is built from an auxiliary bipartite graph: m auxiliary
vertices, each (vertex, auxiliary) edge present independently with probability
p.  Two vertices of the intersection graph are adjacent iff they share at
least one auxiliary vertex.  The projection also returns the multi-edge
excess eta: the sum, over adjacent pairs, of their shared auxiliaries minus one.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

__all__ = [
    "ModelParams",
    "BipartiteGraph",
    "SimpleGraph",
    "derive_params",
    "sample_bipartite",
    "sample_aux_lists",
    "check_trial_size",
    "check_vertex_ids",
    "project_simple",
    "project_with_excess",
    "write_bipartite",
]


@dataclass(frozen=True)
class ModelParams:
    """Model parameter tuple (n, beta, gamma, alpha) with derived quantities.

    m = floor(beta * n) auxiliary vertices, p = gamma * n^(-(1+alpha)/2) edge
    probability, mu = beta * gamma^2.  mu is the phase-transition parameter
    and is meaningful only for alpha = 1.
    """

    n: int
    beta: float
    gamma: float
    alpha: float
    m: int
    p: float
    mu: float


def is_int(value) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _mu(beta: float, gamma: float) -> float:
    """mu = beta * gamma**2, the one formula of every derived, recorded and
    solved mu, or (beta * gamma) * gamma where gamma**2 alone overflows;
    raises ValueError when mu overflows."""
    try:
        mu = beta * gamma ** 2
    except OverflowError:  # float ** raises where float * gives inf
        mu = beta * gamma * gamma
    if math.isinf(mu):
        raise ValueError(f"mu = beta * gamma ** 2 overflows at beta={beta!r}, gamma={gamma!r}")
    return mu


def derive_params(n: int, beta: float, gamma: float, alpha: float = 1.0) -> ModelParams:
    """Validate (n, beta, gamma, alpha) and derive m, p, mu.

    Raises ValueError if n is not a positive integer (a bool is not) or
    exceeds the largest float, beta, gamma or alpha is NaN or infinite, beta
    or gamma is negative, beta * n or mu overflows, or the derived edge
    probability exceeds 1 (gamma too large for the given n).
    """
    if not is_int(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > sys.float_info.max:
        raise ValueError(f"n must be at most {sys.float_info.max!r}, got {n.bit_length()} bits")
    if not all(map(math.isfinite, (beta, gamma, alpha))):
        raise ValueError(f"beta, gamma and alpha must be finite, "
                         f"got {beta}, {gamma}, {alpha}")
    if beta < 0 or gamma < 0:
        raise ValueError(f"beta and gamma must be non-negative, got {beta}, {gamma}")
    prod = beta * n
    if math.isinf(prod):
        raise ValueError(f"beta * n overflows at beta={beta!r}, n={n}")
    # snap to the nearest integer before flooring so that e.g. beta=0.7, n=10
    # yields m=7 despite 0.7*10 == 6.999... in binary floating point
    nearest = round(prod)
    m = nearest if abs(prod - nearest) < 1e-9 * max(1.0, abs(prod)) else math.floor(prod)
    if alpha == 1.0:
        p = gamma / n
    else:
        p = gamma * float(n) ** (-(1.0 + alpha) / 2.0)
    if p > 1.0:
        raise ValueError(f"derived edge probability p={p} exceeds 1 (gamma={gamma}, n={n})")
    return ModelParams(n=int(n), beta=float(beta), gamma=float(gamma), alpha=float(alpha),
                       m=int(m), p=float(p), mu=_mu(float(beta), float(gamma)))


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Auxiliary bipartite graph in CSR layout.

    ``members[offsets[k]:offsets[k+1]]`` is the strictly increasing list of
    vertex indices adjacent to auxiliary vertex k.  Immutable after
    construction; safe to share across workers.
    """

    n: int
    offsets: np.ndarray  # shape (m+1,), int64, non-decreasing
    members: np.ndarray  # shape (edge_count,), int64

    @property
    def m(self) -> int:
        return len(self.offsets) - 1

    @property
    def edge_count(self) -> int:
        return int(self.offsets[-1])

    def lists(self) -> Iterator[np.ndarray]:
        for k in range(self.m):
            yield self.members[self.offsets[k]:self.offsets[k + 1]]


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """Simple undirected graph from the deduplicated projection.

    Edges are parallel arrays (u, v) with u < v, lexicographically sorted and
    unique: the projection's are the high and low int32 words of its distinct
    pair keys.  The CSR adjacency is built on first use and cached.
    """

    n: int
    u: np.ndarray
    v: np.ndarray

    @property
    def edge_count(self) -> int:
        return len(self.u)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.u, minlength=self.n) + np.bincount(self.v, minlength=self.n)

    @functools.cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency (offsets, neighbors); neighbors ascending per vertex."""
        src = np.concatenate([self.u, self.v])
        dst = np.concatenate([self.v, self.u])
        nbrs = dst[np.lexsort((dst, src))]
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n), out=offsets[1:])
        return offsets, nbrs

    def neighbors(self, vertex: int) -> np.ndarray:
        offsets, nbrs = self.adjacency
        return nbrs[offsets[vertex]:offsets[vertex + 1]]


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

# members, pair keys or edges per block of a pass that fills or updates an
# array block by block, so that its temporaries stay a few MB at any size
BLOCK = 1 << 16


def _blocks(size: int) -> Iterator[slice]:
    """Consecutive slices of at most BLOCK entries covering range(size)."""
    for lo in range(0, size, BLOCK):
        yield slice(lo, lo + BLOCK)


def _aux_blocks(offsets: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive auxiliary ranges k0..k1-1 covering range(len(offsets) - 1),
    each holding as many lists as fit in BLOCK members, and at least one."""
    m = len(offsets) - 1
    k0 = 0
    while k0 < m:
        k1 = max(k0 + 1, int(np.searchsorted(offsets, offsets[k0] + BLOCK, "right")) - 1)
        yield k0, k1
        k0 = k1


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty x, sorted."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _fill_distinct(rng: np.random.Generator, n: int, d: int, first: np.ndarray) -> np.ndarray:
    """Complete a uniform distinct d-subset of range(n) from `first`, d draws.

    Keeps the distinct values of `first` and draws batches of d minus the
    count held, plus 2, until d are held; the first d distinct values of an
    i.i.d. uniform stream form a uniform random d-subset.  So the result and
    the draws depend on the set of `first` and on the stream, not on the
    order of `first`.
    """
    held = _sorted_distinct(first)
    while held.size < d:
        draws = rng.integers(0, n, size=d - held.size + 2)
        end = draws.size
        # past d values, the last batch keeps only its earliest new ones
        while (union := _sorted_distinct(np.concatenate((held, draws[:end])))).size > d:
            del union  # so that only one union is held at a time
            end -= 1
        held = union
    return held


# The sampler's traced peak is about 8 bytes per auxiliary and 9 per member
# (tracemalloc at n = 10^6: m = 10^6 and 2*10^6, with 2*10^6 and 4*10^6
# members), so this bound on m + 1 + m*n*p keeps one bipartite graph near
# 0.7 GB.  RSS holds the heap's high-water mark, which matches that peak
# (26.3 MB of glibc heap growth for 26.0 traced at m = 10^6) only while no
# freed array leaves a hole below a later, larger one (see sample_aux_lists).
# A dense light segment in repair costs more: 33 bytes per member at
# n = 10^6, m = 1, p = 0.45, in _fill_distinct's sorted arrays.
BIPARTITE_BUDGET = 75_000_000


def _check_bipartite_size(n: int, m: int, p: float) -> None:
    """Raise ValueError when m*n > 2**63 or n >= 2**63, where the sampler's
    int64 keys k*n + x or its binomial draws would overflow, or when the
    expected CSR size m + 1 + m*n*p exceeds BIPARTITE_BUDGET."""
    if m * n > 2 ** 63 or n >= 2 ** 63:  # exact in Python integers
        raise ValueError(f"m*n > 2**63 or n >= 2**63 overflows the sampler's int64 "
                         f"keys k*n + x (n={n}, m={m})")
    expected = m + 1 + m * n * p
    if expected > BIPARTITE_BUDGET:
        raise ValueError(
            f"expected {expected:.3g} bipartite offsets and members (n={n}, m={m}, "
            f"p={p!r}) exceeds the budget of {BIPARTITE_BUDGET:.3g}")


def sample_aux_lists(n: int, m: int, p: float, rng: np.random.Generator) -> BipartiteGraph:
    """Sample the bipartite graph for raw (n, m, p).

    Per auxiliary vertex: degree d ~ Binomial(n, p), then a uniform random
    d-subset of the vertices.  Cost O(m + total edges) rather than n*m coin
    flips.  Subsets come from one bulk draw; only segments whose draw held a
    duplicate are repaired one by one, and segments with d >= n/2 fall back
    to a partial permutation.  Raises ValueError, before the first draw, on
    p outside [0, 1] or an expected size over BIPARTITE_BUDGET.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    _check_bipartite_size(n, m, p)
    # m = 0, p = 0 and size-0 draws below take nothing from rng.  offsets
    # comes before the degrees, which are freed before the draws, so the
    # draws sit right after offsets; drawn first and kept, the degrees left a
    # hole below them, and the heap grew 41.0 MB where it now grows 26.3.
    offsets = np.zeros(m + 1, dtype=np.int64)
    degrees = rng.binomial(n, p, size=m).astype(np.int64, copy=False)
    np.cumsum(degrees, out=offsets[1:])
    heavy = np.flatnonzero(degrees >= n - n // 2)  # 2d >= n, with no int64 temporary
    # segment-major keys k*n + x over the light segments: one global sort
    # sorts every segment, and a duplicate key names its segment as key // n.
    # The draws become the keys, and each block of them gets its segments'
    # bases k*n added in place, so no base array as long as the draws exists.
    light = offsets
    if heavy.size:
        degrees[heavy] = 0
        light = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(degrees, out=light[1:])
    del degrees
    keys = rng.integers(0, n, size=int(light[-1]))
    for k0, k1 in _aux_blocks(light):
        keys[light[k0]:light[k1]] += np.repeat(np.arange(k0, k1, dtype=np.int64) * n,
                                               np.diff(light[k0:k1 + 1]))
    del light
    keys.sort()
    dirty = np.unique(keys[1:][keys[1:] == keys[:-1]] // n)
    np.remainder(keys, n, out=keys)
    members = keys
    if heavy.size:
        is_light = np.ones(m, dtype=bool)
        is_light[heavy] = False
        members = np.empty(int(offsets[-1]), dtype=np.int64)
        members[np.repeat(is_light, np.diff(offsets))] = keys
    # repairs draw in ascending segment order, then the heavy segments do:
    # this order fixes the stream.  A repair needs only the set of its draws.
    for k in dirty:
        lo, hi = offsets[k], offsets[k + 1]
        members[lo:hi] = _fill_distinct(rng, n, int(hi - lo), members[lo:hi])
    for k in heavy:
        lo, hi = offsets[k], offsets[k + 1]
        members[lo:hi] = np.sort(rng.permutation(n)[:hi - lo])
    return BipartiteGraph(n=n, offsets=offsets, members=members)


def sample_bipartite(params: ModelParams, rng: np.random.Generator) -> BipartiteGraph:
    """Sample the bipartite graph for the given model parameters."""
    return sample_aux_lists(params.n, params.m, params.p, rng)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

# A trial's traced peak is about 22 bytes per pair key at n = 10^6, gamma = 2,
# 16 at gamma = 4, and 20 per vertex (m = 1, n = 10^6 and 4*10^6), so this
# budget on vertices plus pair keys keeps one trial near 1.1 GB.
PAIR_KEY_BUDGET = 50_000_000

# vertex ids of the projection and of the census are int32
MAX_VERTICES = int(np.iinfo(np.int32).max)


def check_vertex_ids(n: int) -> None:
    """Raise ValueError when n exceeds MAX_VERTICES, so that some vertex id
    would not fit in int32, nor in the high word of a pair key i << 32 | j."""
    if n > MAX_VERTICES:
        raise ValueError(f"n={n} exceeds {MAX_VERTICES}, the most vertices "
                         f"whose ids fit in int32")


def check_trial_size(n: int, m: int, p: float) -> None:
    """Raise ValueError when one graph of (n, m, p) would pass either budget:
    BIPARTITE_BUDGET for the sample, or PAIR_KEY_BUDGET for the n vertices
    plus the expected pair-key count m*C(n,2)*p^2 of its projection.  So a
    checked graph has n <= PAIR_KEY_BUDGET < MAX_VERTICES."""
    _check_bipartite_size(n, m, p)
    expected = m * (n * (n - 1) / 2.0) * p ** 2
    if n + expected > PAIR_KEY_BUDGET:
        raise ValueError(
            f"expected {expected:.3g} pair keys plus n={n} vertices (m={m}, p={p!r}) "
            f"exceeds the budget of {PAIR_KEY_BUDGET:.3g}")


def _pair_keys(b: BipartiteGraph) -> np.ndarray:
    """All vertex pairs sharing an auxiliary, one key per sharing auxiliary.

    Keys encode (i, j), i < j, as i << 32 | j, exact for ids below 2**31 and
    sorted as the pairs are, in order of the left member's position, then the
    right one's.  One array of sum_k C(d_k, 2) keys is filled block by block
    over auxiliaries holding about BLOCK members: in a block, each member
    position is paired with every later position of its list in one
    repeat/arange pass; lists are strictly increasing, so the left member is
    the smaller one.  Only a block's temporaries come on top.
    """
    deg = np.diff(b.offsets)
    size = int(deg @ (deg - 1)) // 2
    del deg
    keys = np.empty(size, dtype=np.int64)
    filled = 0
    for k0, k1 in _aux_blocks(b.offsets):
        lo, hi = int(b.offsets[k0]), int(b.offsets[k1])
        members = b.members[lo:hi]
        later = np.repeat(b.offsets[k0 + 1:k1 + 1], np.diff(b.offsets[k0:k1 + 1]))
        later -= np.arange(lo + 1, hi + 1)
        # the pairs of position i start at index cumsum(later)[i] - later[i];
        # a pair's index plus shift[i] is its right position in the block
        shift = np.cumsum(later)
        shift -= later
        np.subtract(np.arange(1, members.size + 1), shift, out=shift)
        right = np.repeat(shift, later)
        del shift
        out = keys[filled:filled + right.size]
        np.left_shift(np.repeat(members, later), 32, out=out)
        del later
        right += np.arange(right.size)
        out |= members[right]
        filled += right.size
    return keys


def project_simple(b: BipartiteGraph) -> SimpleGraph:
    """Deduplicated one-mode projection: i ~ j iff they share an auxiliary."""
    return project_with_excess(b)[0]


def project_with_excess(b: BipartiteGraph) -> tuple[SimpleGraph, int]:
    """Simple projection plus the multi-edge excess eta, the number of pair
    keys beyond the first of each distinct pair, from one sorted pair pass.

    The distinct sorted keys are the edges: block by block in order, each
    block's distinct keys are copied forward to the fill position, which
    never passes the block's start, so no unread key is overwritten and no
    second copy of the edges is made.  u and v are the high and low int32
    words of those keys.  Raises ValueError when n exceeds MAX_VERTICES.
    """
    check_vertex_ids(b.n)
    keys = _pair_keys(b)
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    filled = 0
    for s in _blocks(keys.size):
        distinct = keys[s][first[s]]
        keys[filled:filled + distinct.size] = distinct
        filled += distinct.size
    eta = keys.size - filled
    words = keys[:filled].view(np.int32).reshape(-1, 2)
    high = int(sys.byteorder == "little")
    return SimpleGraph(b.n, words[:, high], words[:, 1 - high]), eta


# ---------------------------------------------------------------------------
# text dump (debugging / cross-checks)
# ---------------------------------------------------------------------------

def write_bipartite(b: BipartiteGraph, f: IO[str]) -> None:
    """Write the line-oriented dump: "n m" header, one line of vertex indices
    per auxiliary vertex, terminated by a blank line."""
    f.write(f"{b.n} {b.m}\n")
    for lst in b.lists():
        f.write(" ".join(map(str, lst.tolist())) + "\n")
    f.write("\n")

