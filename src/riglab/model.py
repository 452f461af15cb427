"""Bipartite sampling and one-mode projections for random intersection graphs.

A graph on n vertices is built from an auxiliary bipartite graph: m auxiliary
vertices, each (vertex, auxiliary) edge present independently with probability
p.  Two vertices of the intersection graph are adjacent iff they share at
least one auxiliary vertex; counting shared auxiliaries instead of collapsing
them gives the multigraph sibling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

__all__ = [
    "ModelParams",
    "BipartiteGraph",
    "SimpleGraph",
    "MultiGraph",
    "derive_params",
    "sample_bipartite",
    "sample_aux_lists",
    "project_simple",
    "project_multi",
    "multi_edge_excess",
    "project_with_excess",
    "write_bipartite",
    "read_bipartite",
]


@dataclass(frozen=True)
class ModelParams:
    """Model parameter tuple (n, beta, gamma, alpha) with derived quantities.

    m = floor(beta * n) auxiliary vertices, p = gamma * n^(-(1+alpha)/2) edge
    probability, mu = beta * gamma^2.  mu is the phase-transition parameter
    and is meaningful only for alpha = 1 (see ``mu_applicable``).
    """

    n: int
    beta: float
    gamma: float
    alpha: float
    m: int
    p: float
    mu: float

    @property
    def mu_applicable(self) -> bool:
        """True iff the asymptotic mean-degree interpretation of mu applies."""
        return self.alpha == 1.0


def derive_params(n: int, beta: float, gamma: float, alpha: float = 1.0) -> ModelParams:
    """Validate (n, beta, gamma, alpha) and derive m, p, mu.

    Raises ValueError if n < 1, beta or gamma is negative, or the derived
    edge probability exceeds 1 (gamma too large for the given n).
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if beta < 0 or gamma < 0:
        raise ValueError(f"beta and gamma must be non-negative, got {beta}, {gamma}")
    prod = beta * n
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
                       m=int(m), p=float(p), mu=float(beta) * float(gamma) ** 2)


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

    def aux_list(self, k: int) -> np.ndarray:
        return self.members[self.offsets[k]:self.offsets[k + 1]]

    def lists(self) -> Iterator[np.ndarray]:
        for k in range(self.m):
            yield self.aux_list(k)

    def aux_degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @classmethod
    def from_lists(cls, n: int, lists) -> "BipartiteGraph":
        arrs = [np.sort(np.asarray(lst, dtype=np.int64)) for lst in lists]
        offsets = np.zeros(len(arrs) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([len(a) for a in arrs])
        members = np.concatenate(arrs) if arrs else np.empty(0, dtype=np.int64)
        g = cls(n=n, offsets=offsets, members=members)
        g.validate()
        return g

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        if self.offsets[0] != 0 or np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must start at 0 and be non-decreasing")
        if self.members.size:
            if self.members.min() < 0 or self.members.max() >= self.n:
                raise ValueError("member indices out of range")
            # strictly increasing inside each segment
            inc = np.diff(self.members) > 0
            seg_start = np.zeros(len(self.members), dtype=bool)
            starts = self.offsets[1:-1]
            seg_start[starts[starts < len(self.members)]] = True
            if not np.all(inc | seg_start[1:]):
                raise ValueError("auxiliary lists must be strictly increasing")

    def __eq__(self, other) -> bool:
        return (isinstance(other, BipartiteGraph) and self.n == other.n
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.members, other.members))


class SimpleGraph:
    """Simple undirected graph from the deduplicated projection.

    Edges are stored as parallel arrays (u, v) with u < v, lexicographically
    sorted and unique.  Adjacency is built lazily and cached; treat instances
    as immutable once constructed.
    """

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray):
        self.n = n
        self.u = u
        self.v = v
        self._adj: tuple[np.ndarray, np.ndarray] | None = None
        self._degrees: np.ndarray | None = None

    @classmethod
    def from_edges(cls, n: int, pairs) -> "SimpleGraph":
        norm = sorted({(min(a, b), max(a, b)) for a, b in pairs})
        for a, b in norm:
            if a == b:
                raise ValueError(f"self-loop {a} not allowed")
            if a < 0 or b >= n:
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
        u = np.array([e[0] for e in norm], dtype=np.int64)
        v = np.array([e[1] for e in norm], dtype=np.int64)
        return cls(n, u, v)

    @property
    def edge_count(self) -> int:
        return len(self.u)

    def edge_set(self) -> set[tuple[int, int]]:
        return set(zip(self.u.tolist(), self.v.tolist()))

    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            self._degrees = (np.bincount(self.u, minlength=self.n)
                             + np.bincount(self.v, minlength=self.n))
        return self._degrees

    def degree(self, vertex: int) -> int:
        return int(self.degrees()[vertex])

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency (offsets, neighbors); neighbors ascending per vertex."""
        if self._adj is None:
            src = np.concatenate([self.u, self.v])
            dst = np.concatenate([self.v, self.u])
            order = np.lexsort((dst, src))
            nbrs = dst[order]
            counts = np.bincount(src, minlength=self.n)
            offsets = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            self._adj = (offsets, nbrs)
        return self._adj

    def neighbors(self, vertex: int) -> np.ndarray:
        offsets, nbrs = self.adjacency()
        return nbrs[offsets[vertex]:offsets[vertex + 1]]


@dataclass(frozen=True, eq=False)
class MultiGraph:
    """Multigraph projection: distinct pairs with shared-auxiliary counts."""

    n: int
    u: np.ndarray
    v: np.ndarray
    counts: np.ndarray

    @property
    def total_edge_count(self) -> int:
        """Edge count with multiplicity."""
        return int(self.counts.sum())

    @property
    def distinct_pair_count(self) -> int:
        return len(self.u)

    def multiplicities(self) -> dict[tuple[int, int], int]:
        return {(int(a), int(b)): int(c)
                for a, b, c in zip(self.u, self.v, self.counts)}

    def collapse(self) -> SimpleGraph:
        """Coalesce parallel edges; yields the simple projection."""
        return SimpleGraph(self.n, self.u.copy(), self.v.copy())


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _fill_distinct(rng: np.random.Generator, n: int, d: int, first: np.ndarray) -> np.ndarray:
    """Complete a uniform distinct d-subset of range(n), absorbing `first` draws.

    Treats `first` as the head of an i.i.d. uniform stream and keeps drawing
    until d distinct values have appeared; the first d distinct values of such
    a stream form a uniform random d-subset.
    """
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


def sample_aux_lists(n: int, m: int, p: float, rng: np.random.Generator) -> BipartiteGraph:
    """Sample the bipartite graph for raw (n, m, p).

    Per auxiliary vertex: degree d ~ Binomial(n, p), then a uniform random
    d-subset of the vertices.  Cost O(m + total edges) rather than n*m coin
    flips.  Subsets come from one bulk draw; only segments whose draw held a
    duplicate are repaired one by one, and segments with d >= n/2 fall back
    to a partial permutation.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    if m == 0 or p == 0.0:
        return BipartiteGraph(n=n, offsets=np.zeros(m + 1, dtype=np.int64),
                              members=np.empty(0, dtype=np.int64))
    degrees = rng.binomial(n, p, size=m).astype(np.int64)
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    members = np.empty(int(offsets[-1]), dtype=np.int64)

    heavy = 2 * degrees >= n
    light_deg = np.where(heavy, 0, degrees)
    light_off = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(light_deg, out=light_off[1:])
    flat = rng.integers(0, n, size=int(light_off[-1]))  # size 0 draws nothing
    seg = np.repeat(np.arange(m, dtype=np.int64), light_deg)
    srt = np.sort(seg * n + flat)  # segment-major keys: global sort == per-segment sort
    members[np.repeat(~heavy, degrees)] = srt - seg * n
    dirty = np.zeros(m, dtype=bool)
    dirty[seg[1:][srt[1:] == srt[:-1]]] = True
    # the repairs draw from rng in ascending segment order, then the heavy
    # segments do; this order fixes the random stream
    for k in np.flatnonzero(dirty):
        members[offsets[k]:offsets[k + 1]] = _fill_distinct(
            rng, n, int(degrees[k]), flat[light_off[k]:light_off[k + 1]])
    for k in np.flatnonzero(heavy):
        d = int(degrees[k])
        members[offsets[k]:offsets[k + 1]] = np.sort(rng.permutation(n)[:d])
    return BipartiteGraph(n=n, offsets=offsets, members=members)


def sample_bipartite(params: ModelParams, rng: np.random.Generator) -> BipartiteGraph:
    """Sample the bipartite graph for the given model parameters."""
    return sample_aux_lists(params.n, params.m, params.p, rng)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def _pair_keys(b: BipartiteGraph) -> np.ndarray:
    """All vertex pairs sharing an auxiliary, one key per sharing auxiliary.

    Keys encode (i, j), i < j, as i*n + j.  Each member position is paired
    with every later position of its list in one repeat/arange pass; lists
    are strictly increasing, so the left member is the smaller one.
    """
    pos = np.arange(b.edge_count, dtype=np.int64)
    later = np.repeat(b.offsets[1:], b.aux_degrees()) - pos - 1
    first = np.cumsum(later) - later  # index of each position's first pair
    left = np.repeat(pos, later)
    right = np.arange(left.size, dtype=np.int64) + np.repeat(pos + 1 - first, later)
    return b.members[left] * b.n + b.members[right]


def _pair_counts(b: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """Distinct pair keys in ascending order, with the number of auxiliaries
    each pair shares: one sort, then run starts by a neighbour compare."""
    keys = np.sort(_pair_keys(b))
    run_start = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    return keys[starts], np.diff(starts, append=keys.size)


def project_simple(b: BipartiteGraph) -> SimpleGraph:
    """Deduplicated one-mode projection: i ~ j iff they share an auxiliary."""
    keys, _ = _pair_counts(b)
    return SimpleGraph(b.n, keys // b.n, keys % b.n)


def project_multi(b: BipartiteGraph) -> MultiGraph:
    """Multigraph projection: multiplicity = number of shared auxiliaries."""
    keys, counts = _pair_counts(b)
    return MultiGraph(n=b.n, u=keys // b.n, v=keys % b.n, counts=counts)


def multi_edge_excess(b: BipartiteGraph) -> int:
    """Multigraph edge count (with multiplicity) minus simple edge count."""
    keys, counts = _pair_counts(b)
    return int(counts.sum() - keys.size)


def project_with_excess(b: BipartiteGraph) -> tuple[SimpleGraph, int]:
    """Simple projection plus the multi-edge excess, sharing one pair pass."""
    keys, counts = _pair_counts(b)
    return SimpleGraph(b.n, keys // b.n, keys % b.n), int(counts.sum() - keys.size)


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


def read_bipartite(f: IO[str]) -> BipartiteGraph:
    """Parse the dump format written by write_bipartite."""
    header = f.readline().split()
    if len(header) != 2:
        raise ValueError("expected header line 'n m'")
    n, m = int(header[0]), int(header[1])
    lists = []
    for _ in range(m):
        line = f.readline()
        if line == "":
            raise ValueError("unexpected end of file inside auxiliary lists")
        lists.append([int(t) for t in line.split()])
    return BipartiteGraph.from_lists(n, lists)
