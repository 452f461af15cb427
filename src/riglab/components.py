"""Component census and the step-by-step exploration process."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import SimpleGraph

__all__ = ["ComponentCensus", "ExplorationTrace", "census", "explore", "small_fraction"]


@dataclass(frozen=True, eq=False)
class ComponentCensus:
    """Connected-component sizes, sorted descending; sizes sum to n."""

    sizes: np.ndarray
    n: int

    @property
    def largest(self) -> int:
        return int(self.sizes[0]) if len(self.sizes) else 0

    @property
    def second(self) -> int:
        """Second-largest size; 0 when only one component exists."""
        return int(self.sizes[1]) if len(self.sizes) > 1 else 0


@dataclass(frozen=True)
class ExplorationTrace:
    """Newly-identified counts per visit, starting from one vertex.

    steps[i] is the number of vertices first identified at the (i+1)th visit;
    steps[0] equals the degree of the start vertex, and the steps sum to
    component_size - 1 (every component vertex is identified exactly once).
    """

    start: int
    steps: tuple[int, ...]
    component_size: int


def census(g: SimpleGraph) -> ComponentCensus:
    """Exact component sizes by union-find in numpy, no Python loop per vertex.

    Every pointer goes from a vertex to a larger one, so the forest cannot
    close a cycle; this needs only SimpleGraph's invariant u < v.  Round one
    hooks each vertex onto its largest neighbour, which on edges sorted by
    (u, v) is the last edge of its run of u.  Each later round relabels the
    edges by the roots of their ends, drops those inside one tree, and hooks
    every root onto the largest root it shares an edge with (Shiloach and
    Vishkin's hooking, J. Algorithms 3, 1982, in max form).  Pointer jumping
    after round one points every vertex at its root; after each later round
    it does so only for the round-one roots on the remaining edges, so every
    other vertex still points at its round-one root and one last jump labels
    them all.
    """
    parent = np.arange(g.n)
    u, v = g.u, g.v
    if g.edge_count:
        last = np.flatnonzero(u[1:] != u[:-1])
        hooked = np.append(u[last], u[-1])
        parent[hooked] = np.append(v[last], v[-1])
        del last
        _jump(parent, hooked)
        del hooked
    # the edges between round-one trees, as root pairs; the mask comes first,
    # so the edge-length gathers are freed before the kept ends are gathered
    keep = parent[u] != parent[v]
    a = parent[u[keep]]
    b = parent[v[keep]]
    del keep
    if len(a):
        active = np.zeros(g.n, dtype=bool)
        active[a] = True
        active[b] = True
        active = np.flatnonzero(active)
        while True:
            np.maximum.at(parent, a, b)
            np.maximum.at(parent, b, a)
            _jump(parent, active)
            a = parent[a]
            b = parent[b]
            keep = a != b
            if not keep.any():
                break
            a = a[keep]
            b = b[keep]
        parent = parent[parent]
    # a counting sort: per_size[s] components have s vertices
    per_size = np.bincount(np.bincount(parent))
    sizes = np.repeat(np.arange(len(per_size) - 1, 0, -1), per_size[:0:-1])
    return ComponentCensus(sizes=sizes, n=g.n)


def _jump(parent: np.ndarray, s: np.ndarray) -> None:
    """Pointer jumping: point every vertex of s at its root, given that every
    pointer out of s ends in s or at a root."""
    ps = parent[s]
    while True:
        pps = parent[ps]
        if np.array_equal(pps, ps):
            return
        parent[s] = pps
        ps = pps


def explore(g: SimpleGraph, start: int) -> ExplorationTrace:
    """Run the exploration process from `start` in strict FIFO order.

    Visits one identified-but-unvisited vertex per step (first identified,
    first visited) and identifies its not-yet-identified neighbours in
    ascending index order; terminates when none remain.
    """
    if not 0 <= start < g.n:
        raise ValueError(f"start vertex {start} out of range for n={g.n}")
    offsets, nbrs = g.adjacency()
    identified = np.zeros(g.n, dtype=bool)
    identified[start] = True
    queue: deque[int] = deque([start])
    steps: list[int] = []
    visited = 0
    while queue:
        w = queue.popleft()
        visited += 1
        new = 0
        for x in nbrs[offsets[w]:offsets[w + 1]].tolist():
            if not identified[x]:
                identified[x] = True
                queue.append(x)
                new += 1
        steps.append(new)
    return ExplorationTrace(start=start, steps=tuple(steps), component_size=visited)


def small_fraction(c: ComponentCensus, threshold: int) -> float:
    """Fraction of vertices lying in components of size <= threshold."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    return float(c.sizes[c.sizes <= threshold].sum()) / c.n
