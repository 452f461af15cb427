"""Component census and the step-by-step exploration process."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

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
    """Exact component sizes via scipy's connected_components on the edge list."""
    adj = coo_matrix((np.ones(g.edge_count, dtype=np.int8), (g.u, g.v)), shape=(g.n, g.n))
    _, labels = connected_components(adj, directed=False)
    sizes = -np.sort(-np.bincount(labels))
    return ComponentCensus(sizes=sizes, n=g.n)


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
