import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from riglab import model
from riglab.components import census, explore, small_fraction
from riglab.degree import DegreePmf, rig_pmf, tv_distance
from riglab.model import SimpleGraph, derive_params, project_simple, sample_bipartite

import oracle


def rng(seed=0):
    return np.random.default_rng(seed)


def random_graph(n, beta, gamma, g):
    return project_simple(sample_bipartite(derive_params(n, beta, gamma), g))


def scipy_sizes(g):
    """The census oracle: scipy's connected_components, sizes descending."""
    adj = csr_matrix((np.ones(g.edge_count), (g.u, g.v)), shape=(g.n, g.n))
    _, labels = connected_components(adj, directed=False)
    return sorted(np.bincount(labels).tolist(), reverse=True)


def permuted_graph(n, a, b, seed):
    """The graph with edges (a[i], b[i]) under a random vertex permutation."""
    perm = np.random.default_rng(seed).permutation(n)
    return oracle.simple_from_edges(n, zip(perm[a].tolist(), perm[b].tolist()))


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(1, 12))
    max_edges = n * (n - 1) // 2
    k = draw(st.integers(0, max_edges))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    idx = draw(st.permutations(range(max_edges))) if max_edges else []
    return oracle.simple_from_edges(n, [all_pairs[i] for i in idx[:k]])


class TestCensus:
    def test_edgeless(self):
        c = census(oracle.simple_from_edges(5, []))
        assert c.sizes.tolist() == [1, 1, 1, 1, 1]
        assert c.largest == 1 and c.second == 1

    def test_triangle_plus_isolated(self):
        c = census(oracle.simple_from_edges(4, [(0, 1), (1, 2), (0, 2)]))
        assert c.sizes.tolist() == [3, 1]

    def test_single_clique(self):
        # one auxiliary covering everything: a single component
        b = oracle.bipartite_from_lists(6, [list(range(6))])
        c = census(project_simple(b))
        assert c.sizes.tolist() == [6]
        assert c.second == 0

    @given(simple_graphs())
    @settings(max_examples=60, deadline=None)
    def test_partition_invariants(self, g):
        c = census(g)
        assert int(c.sizes.sum()) == g.n
        assert (c.sizes >= 1).all()
        assert (np.diff(c.sizes) <= 0).all()
        assert c.largest + c.second <= g.n

    @given(simple_graphs(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_relabeling_invariance(self, g, seed):
        perm = np.random.default_rng(seed).permutation(g.n)
        relabeled = oracle.simple_from_edges(
            g.n, [(perm[a], perm[b]) for a, b in zip(g.u.tolist(), g.v.tolist())])
        assert census(relabeled).sizes.tolist() == census(g).sizes.tolist()

    def test_vs_explore(self):
        # a second reference besides scipy: a component of size s holds s
        # vertices whose exploration reaches s vertices
        for seed in range(5):
            g = random_graph(300, 1.0, 1.4, rng(seed))
            per_vertex = sorted(explore(g, v).component_size for v in range(g.n))
            sizes = census(g).sizes
            assert sorted(np.repeat(sizes, sizes).tolist()) == per_vertex

    def test_any_edge_order_vs_explore(self):
        # census relies on SimpleGraph's invariant u < v and hooks along the
        # last edge of each run of u; simple_from_edges establishes the sorted
        # edges from shuffled, reversed pairs
        for seed in range(3):
            proj = project_simple(sample_bipartite(derive_params(300, 1.0, 1.4), rng(seed)))
            pairs = sorted(zip(proj.v.tolist(), proj.u.tolist()))
            rng(seed).shuffle(pairs)
            g = oracle.simple_from_edges(300, pairs)
            per_vertex = sorted(explore(g, v).component_size for v in range(g.n))
            sizes = census(g).sizes
            assert sorted(np.repeat(sizes, sizes).tolist()) == per_vertex


def hub_graphs():
    """Graphs where many edges share one end: stars centred on the smallest
    and on the largest label, K_{2,k}, and hubs with overlapping random
    leaf sets, under permuted labels."""
    n = 3000
    leaves = np.arange(1, n)
    yield oracle.simple_from_edges(n, zip([0] * (n - 1), leaves.tolist()))
    yield oracle.simple_from_edges(n, zip((leaves - 1).tolist(), [n - 1] * (n - 1)))
    yield oracle.simple_from_edges(n, [(h, x) for h in (0, n - 1) for x in range(1, n - 1)])
    hubs = np.repeat(np.arange(6), 400)
    leaf_sets = rng(7).integers(6, n, size=hubs.size)
    for seed in range(2):
        yield permuted_graph(n, hubs, leaf_sets, seed)


class TestCensusBlocks:
    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    def test_any_block_size(self, monkeypatch, block):
        graphs = [oracle.simple_from_edges(1, []), oracle.simple_from_edges(7, []),
                  oracle.simple_from_edges(4, [(2, 3)]), *hub_graphs(),
                  random_graph(2000, 0.7, 1.0, rng(5)), random_graph(2000, 1.0, 2.0, rng(6))]
        want = [census(g).sizes for g in graphs]
        monkeypatch.setattr(model, "BLOCK", block)
        for g, sizes in zip(graphs, want):
            assert np.array_equal(census(g).sizes, sizes)

    def test_many_default_blocks(self, monkeypatch):
        # about 2e5 edges: several blocks of the default size, against one
        # block that holds them all, and against scipy
        g = random_graph(100_000, 1.0, 2.0, rng(8))
        assert g.edge_count > 2 * model.BLOCK
        sizes = census(g).sizes
        assert sizes.tolist() == scipy_sizes(g)
        monkeypatch.setattr(model, "BLOCK", 1 << 62)
        assert np.array_equal(census(g).sizes, sizes)


class TestCensusVertexIds:
    def test_int64_built_graph(self):
        # the census holds int32 ids whatever the dtype of the edges
        g = random_graph(20_000, 1.0, 2.0, rng(9))
        assert g.u.dtype == np.int32
        g64 = SimpleGraph(g.n, g.u.astype(np.int64), g.v.astype(np.int64))
        assert np.array_equal(census(g64).sizes, census(g).sizes)

    def test_refuses_ids_beyond_int32(self):
        # refused before the n-sized parent array is allocated
        n = model.MAX_VERTICES + 1
        with pytest.raises(ValueError, match=f"n={n} exceeds"):
            census(SimpleGraph(n, np.array([0]), np.array([n - 1])))


class TestCensusVsScipy:
    @given(simple_graphs())
    @settings(max_examples=100, deadline=None)
    def test_small_graphs(self, g):
        assert census(g).sizes.tolist() == scipy_sizes(g)

    @pytest.mark.parametrize("beta,gamma", [(0.5, 1.0), (0.7, 1.0), (0.9, 1.0),
                                            (1.1, 1.0), (1.5, 1.0), (0.5, 2.0)])
    def test_sampled_across_transition(self, beta, gamma):
        for seed in range(3):
            g = random_graph(10_000, beta, gamma, rng(seed))
            assert census(g).sizes.tolist() == scipy_sizes(g)

    def test_long_chains(self):
        # a path, a cycle and a random recursive tree on 1e5 vertices with
        # permuted labels, which take many rounds of hooking
        n = 100_000
        i = np.arange(n)
        tree_parent = (rng(1).random(n - 1) * i[1:]).astype(np.int64)
        for a, b in ((i[:-1], i[1:]), (i, np.roll(i, 1)), (i[1:], tree_parent)):
            for seed in range(2):
                g = permuted_graph(n, a, b, seed)
                assert census(g).sizes.tolist() == scipy_sizes(g) == [n]
        # the path in label order: round one's hook chain is the whole path
        assert census(oracle.simple_from_edges(n, zip(i[:-1], i[1:]))).sizes.tolist() == [n]

    def test_hubs(self):
        # a hub is hooked by many plain-scatter writes at once, within a block
        # and across blocks; whichever wins, the sizes must be the same
        for g in hub_graphs():
            assert census(g).sizes.tolist() == scipy_sizes(g)

    def test_degenerate(self):
        for g in (oracle.simple_from_edges(1, []), oracle.simple_from_edges(7, [])):
            c = census(g)
            assert c.sizes.tolist() == scipy_sizes(g) == [1] * g.n
            assert c.sizes.dtype == np.int64


class TestExplore:
    def test_isolated_vertex(self):
        t = explore(oracle.simple_from_edges(3, [(1, 2)]), 0)
        assert t.steps == (0,) and t.component_size == 1

    def test_path(self):
        t = explore(oracle.simple_from_edges(3, [(0, 1), (1, 2)]), 0)
        assert t.steps == (1, 1, 0) and t.component_size == 3

    def test_path_from_middle(self):
        t = explore(oracle.simple_from_edges(3, [(0, 1), (1, 2)]), 1)
        assert t.steps == (2, 0, 0) and t.component_size == 3

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            explore(oracle.simple_from_edges(3, []), 3)

    def test_first_step_is_degree(self):
        for seed in range(20):
            g = random_graph(50, 1.0, 1.0, rng(seed))
            for v in range(g.n):
                assert explore(g, v).steps[0] == g.degrees()[v]

    @given(simple_graphs(), st.integers(0, 11))
    @settings(max_examples=80, deadline=None)
    def test_steps_sum_identity(self, g, start):
        start %= g.n
        t = explore(g, start)
        assert len(t.steps) == t.component_size
        assert sum(t.steps) == t.component_size - 1

    @given(simple_graphs())
    @settings(max_examples=60, deadline=None)
    def test_cross_oracle_with_census(self, g):
        # exploring one representative per component reproduces the census
        seen = set()
        sizes = []
        for v in range(g.n):
            if v not in seen:
                t = explore(g, v)
                sizes.append(t.component_size)
                comp = {v}
                frontier = [v]
                while frontier:
                    w = frontier.pop()
                    for x in g.neighbors(w).tolist():
                        if x not in comp:
                            comp.add(x)
                            frontier.append(x)
                seen |= comp
        assert sorted(sizes, reverse=True) == census(g).sizes.tolist()

    def test_deterministic_fifo_order(self):
        g = oracle.simple_from_edges(6, [(0, 2), (0, 4), (2, 3), (4, 5), (3, 1)])
        assert explore(g, 0).steps == (2, 1, 1, 1, 0, 0)


class TestSmallFraction:
    def test_threshold_at_least_max(self):
        c = census(oracle.simple_from_edges(4, [(0, 1), (1, 2), (0, 2)]))
        assert small_fraction(c, 3) == 1.0
        assert small_fraction(c, 99) == 1.0

    def test_threshold_one(self):
        c = census(oracle.simple_from_edges(4, [(0, 1), (1, 2), (0, 2)]))
        assert small_fraction(c, 1) == 0.25

    def test_rejects_below_one(self):
        c = census(oracle.simple_from_edges(2, []))
        with pytest.raises(ValueError):
            small_fraction(c, 0)


class TestDegreeOfFirstStep:
    def test_x1_distribution_matches_rig(self):
        # explore()'s first step equals the start degree (verified above), so
        # the X1 law over sampled graphs is the vertex degree law
        n = 50
        params = derive_params(n, 1.0, 1.0)
        g = rng(77)
        counts = np.zeros(n, dtype=np.int64)
        graphs = 2000  # n vertices each -> 1e5 start samples
        for _ in range(graphs):
            sg = project_simple(sample_bipartite(params, g))
            counts[:len(np.bincount(sg.degrees()))] += np.bincount(sg.degrees())
        emp = DegreePmf(counts / counts.sum())
        assert tv_distance(emp, rig_pmf(params.m, n, params.p)) < 0.02


class TestPartialSumDomination:
    def test_exploration_sums_below_iid(self):
        # P(sum of first k steps >= t) under exploration is bounded by the
        # i.i.d. degree-sum tail (plus Monte Carlo noise): vertices can only
        # be newly identified once
        n = 50
        params = derive_params(n, 1.0, 1.0)
        pmf = rig_pmf(params.m, n, params.p).probs
        g = rng(123)
        reps = 3000
        kmax = 5
        sums = np.zeros((reps, kmax), dtype=np.int64)
        for r in range(reps):
            t = explore(project_simple(sample_bipartite(params, g)), 0)
            steps = np.zeros(kmax, dtype=np.int64)
            take = min(kmax, len(t.steps))
            steps[:take] = t.steps[:take]  # zero beyond termination
            sums[r] = np.cumsum(steps)
        conv = np.array([1.0])
        for k in range(kmax):
            conv = np.convolve(conv, pmf)
            for t in range(1, 13):
                emp = float((sums[:, k] >= t).mean())
                iid = float(conv[t:].sum())
                se = math.sqrt(max(emp * (1 - emp), 1e-12) / reps)
                assert emp <= iid + 3 * se, (k, t, emp, iid)
