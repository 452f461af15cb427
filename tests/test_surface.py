"""What the acceptance suite and the benchmark read from the graph types.

One small sampled graph goes through every attribute and method of
BipartiteGraph, SimpleGraph and the census that tests/test_acceptance.py and
perfbench/ use, so that a trim of that surface fails here within a second
rather than deep inside the acceptance ensembles.
"""

import dataclasses
import io
import math

import numpy as np
import pytest

from riglab.components import census, explore
from riglab.experiments import trial_stream
from riglab.model import (BIPARTITE_BUDGET, derive_params, project_simple,
                          project_with_excess, sample_bipartite, write_bipartite)


@pytest.fixture(scope="module")
def bipartite():
    _, rng = trial_stream(5, 0, 0)
    return sample_bipartite(derive_params(60, 1.0, 1.5), rng)


def test_bipartite_surface(bipartite):
    b = bipartite
    assert (b.n, b.m) == (60, 60)
    assert b.offsets.shape == (b.m + 1,) and b.offsets[0] == 0
    assert b.members.size == b.edge_count > 0
    lists = [lst.tolist() for lst in b.lists()]
    assert sum(map(len, lists)) == b.edge_count
    assert lists == [b.members[lo:hi].tolist() for lo, hi in zip(b.offsets[:-1], b.offsets[1:])]
    buf = io.StringIO()
    write_bipartite(b, buf)
    assert buf.getvalue().startswith("60 60\n")


@pytest.mark.parametrize("path,point", [("light", (60, 1.0, 1.5)), ("heavy", (40, 0.75, 24.0))])
def test_bipartite_dtypes(path, point):
    # members stay int64: perfbench/checks.py::pair_count forms
    # min(a, c) * n + max(a, c) from them, which int32 members would wrap
    n = point[0]
    b = sample_bipartite(derive_params(*point), trial_stream(5, 0, 0)[1])
    assert (np.diff(b.offsets).max() >= n - n // 2) == (path == "heavy")
    assert b.members.dtype == np.int64
    assert b.offsets.dtype == np.int32


def test_bipartite_budget_fits_int32_offsets():
    # the last offset is the member count.  At p = 1 it is m*n, and the budget
    # holds m + 1 + m*n; otherwise it is Binomial(m*n, p) of mean at most the
    # budget, which reaches t = 2**31 with probability at most
    # exp(-(t ln(t/mean) - t + mean)) (Chernoff)
    t = 2 ** 31
    assert BIPARTITE_BUDGET < t
    log_tail = -(t * math.log(t / BIPARTITE_BUDGET) - t + BIPARTITE_BUDGET)
    assert log_tail < -1e9


def test_simple_graph_surface(bipartite):
    g = project_simple(bipartite)
    assert np.array_equal(project_with_excess(bipartite)[0].u, g.u)
    assert g.n == 60 and g.edge_count == len(g.u) == len(g.v) > 0
    assert np.all(g.u < g.v)
    deg = g.degrees()
    assert deg.sum() == 2 * g.edge_count
    for v in range(g.n):
        assert g.neighbors(v).size == deg[v]
    # one CSR, built once: a loop over neighbors reuses it
    assert g.adjacency is g.adjacency
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.n = 1


def test_census_surface(bipartite):
    g = project_simple(bipartite)
    c = census(g)
    assert int(c.sizes.sum()) == g.n
    assert c.largest == c.sizes[0] and c.second == c.sizes[1]
    t = explore(g, 0)
    assert t.component_size in c.sizes.tolist()
    assert sum(t.steps) == t.component_size - 1
