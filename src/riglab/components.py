"""Component census and the step-by-step exploration process."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import SimpleGraph, _blocks, check_vertex_ids

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

    Every hook is a plain scatter parent[lo] = hi over pairs lo < hi whose lo
    is a root.  Where several pairs share lo, whichever duplicate write wins
    points lo at some larger vertex, so pointers only ever increase and no
    cycle can close; and every lo is hooked, so each round leaves fewer roots
    on the pairs.  Round one hooks along the edges themselves, since u < v is
    SimpleGraph's invariant, and pointer jumping then points every vertex at
    its root.  Each later round hooks along the crossing edges, the edges
    between two trees held as root pairs (Shiloach and Vishkin's hooking,
    J. Algorithms 3, 1982, onto any larger root), jumps the round-one roots
    on them to their roots and relabels them, dropping the ones inside one
    tree.  Every other vertex still points at its round-one root, so one last
    jump labels them all.  The crossing edges are built and updated block by
    block in place and freed before that jump, so only a block's temporaries
    come on top of them; the sizes are the run lengths of the labels sorted
    in place, so no count as long as n or the giant is made.  Vertex ids are
    int32 (raises ValueError when n exceeds MAX_VERTICES), and every scatter
    or gather over edges or pairs goes by block: numpy turns an int32 index
    into an intp copy, which over a whole array would be 8 bytes per edge.
    Gathers use take, which does that at about half the cost of fancy
    indexing.
    """
    check_vertex_ids(g.n)
    parent = np.arange(g.n, dtype=np.int32)
    u, v = g.u, g.v
    for s in _blocks(g.edge_count):
        parent[u[s]] = v[s]
    _jump(parent)
    # the edges between round-one trees, as root pairs lo < hi
    cross = np.empty(g.edge_count, dtype=bool)
    for s in _blocks(g.edge_count):
        np.not_equal(parent.take(u[s]), parent.take(v[s]), out=cross[s])
    lo = np.empty(np.count_nonzero(cross), dtype=np.int32)
    hi = np.empty_like(lo)
    filled = 0
    for s in _blocks(g.edge_count):
        filled = _put_roots(parent, u[s][cross[s]], v[s][cross[s]], lo, hi, filled)
    del cross
    active = np.zeros(g.n, dtype=bool)
    for s in _blocks(len(lo)):
        active[lo[s]] = True
        active[hi[s]] = True
    active = np.flatnonzero(active)
    while len(lo):
        for s in _blocks(len(lo)):
            parent[lo[s]] = hi[s]
        _jump(parent, active)
        # compacting in place: block s is read before any write reaches it
        filled = 0
        for s in _blocks(len(lo)):
            filled = _put_roots(parent, lo[s], hi[s], lo, hi, filled)
        lo, hi = lo[:filled], hi[:filled]
    del lo, hi
    for s in _blocks(g.n):
        parent[s] = parent.take(parent[s])
    parent.sort()
    return ComponentCensus(sizes=_run_lengths_descending(parent), n=g.n)


def _run_lengths_descending(x: np.ndarray) -> np.ndarray:
    """The lengths of the runs of equal values in x, as int64, descending,
    found block by block, so that only a block's temporaries come on top of
    x and the lengths; negated, the lengths sort descending in place."""
    n = len(x)

    def new_runs(s: slice) -> np.ndarray:  # x[s.start + 1 + i] starts a run
        y = x[s.start:s.stop + 1]
        return y[1:] != y[:-1]

    runs = min(n, 1) + sum(np.count_nonzero(new_runs(s)) for s in _blocks(n - 1))
    # the runs' starts, then n, differenced in place from the front
    starts = np.empty(runs + 1, dtype=np.int64)
    starts[0], starts[runs] = 0, n
    filled = 1
    for s in _blocks(n - 1):
        new = np.flatnonzero(new_runs(s))
        new += s.start + 1
        starts[filled:filled + len(new)] = new
        filled += len(new)
    sizes = starts[:runs]
    for s in _blocks(runs):
        np.subtract(starts[s.start + 1:s.stop + 1], sizes[s], out=sizes[s])
    np.negative(sizes, out=sizes)
    sizes.sort()
    np.negative(sizes, out=sizes)
    return sizes


def _put_roots(parent: np.ndarray, a: np.ndarray, b: np.ndarray,
               lo: np.ndarray, hi: np.ndarray, filled: int) -> int:
    """Write the root pairs of the edges (a, b) that join two trees, smaller
    root first, at lo[filled:] and hi[filled:]; return the new fill."""
    ra, rb = parent.take(a), parent.take(b)
    keep = ra != rb
    ra, rb = ra[keep], rb[keep]
    end = filled + len(ra)
    np.minimum(ra, rb, out=lo[filled:end])
    np.maximum(ra, rb, out=hi[filled:end])
    return end


def _jump(parent: np.ndarray, active: np.ndarray | None = None) -> None:
    """Pointer jumping: point every vertex of `active` (ascending; all of
    them when None) at its root, given that pointers only increase and every
    pointer out of `active` ends in it or at a root.  Blocks go from the last
    down, each jumped in place until done, so a block's pointers end in
    itself or at vertices that already point at their roots."""
    size = len(parent) if active is None else len(active)
    for s in reversed(list(_blocks(size))):
        at = s if active is None else active[s]
        ps = parent[at]
        while True:
            pps = parent.take(ps)
            if np.array_equal(pps, ps):
                break
            parent[at] = pps
            ps = pps


def explore(g: SimpleGraph, start: int) -> ExplorationTrace:
    """Run the exploration process from `start` in strict FIFO order.

    Visits one identified-but-unvisited vertex per step (first identified,
    first visited) and identifies its not-yet-identified neighbours in
    ascending index order; terminates when none remain.
    """
    if not 0 <= start < g.n:
        raise ValueError(f"start vertex {start} out of range for n={g.n}")
    offsets, nbrs = g.adjacency
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
