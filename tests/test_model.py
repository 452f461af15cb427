import hashlib
import io
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riglab import model
from riglab.model import (BipartiteGraph, _fill_distinct, _pair_keys, derive_params,
                          project_simple, project_with_excess, sample_aux_lists,
                          sample_bipartite, write_bipartite)

import oracle


def rng(seed=0):
    return np.random.default_rng(seed)


def edge_set(g):
    return set(zip(g.u.tolist(), g.v.tolist()))


# ---------------------------------------------------------------------------
# parameter derivation
# ---------------------------------------------------------------------------

class TestDeriveParams:
    def test_basic(self):
        p = derive_params(100, 1.0, 1.0)
        assert (p.m, p.p, p.mu) == (100, 0.01, 1.0)

    def test_beta_zero(self):
        p = derive_params(100, 0.0, 5.0)
        assert (p.m, p.p, p.mu) == (0, 0.05, 0.0)

    def test_alpha_three(self):
        p = derive_params(10, 2.0, 0.5, alpha=3.0)
        assert p.m == 20
        assert p.p == pytest.approx(0.5e-2, rel=1e-12)

    def test_alpha_one_p_exact(self):
        for n in (3, 7, 1000, 99991):
            assert derive_params(n, 1.0, 1.3).p == 1.3 / n

    def test_m_floor(self):
        assert derive_params(10, 0.7, 1.0).m == 7
        assert derive_params(10, 0.75, 1.0).m == 7
        assert derive_params(3, 0.5, 1.0).m == 1

    def test_rejects_p_above_one(self):
        with pytest.raises(ValueError):
            derive_params(4, 1.0, 5.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            derive_params(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            derive_params(10, -1.0, 1.0)
        with pytest.raises(ValueError):
            derive_params(10, 1.0, -0.1)
        for n in (100.7, True, "100"):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                derive_params(n, 1.0, 1.0)

    @pytest.mark.parametrize("beta,gamma,alpha", [
        (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (math.inf, 1.0, 1.0),
        (1.0, math.inf, 1.0), (1.0, -math.inf, 1.0), (1.0, 1.0, math.nan),
    ])
    def test_rejects_non_finite(self, beta, gamma, alpha):
        with pytest.raises(ValueError, match="finite"):
            derive_params(10, beta, gamma, alpha)


# ---------------------------------------------------------------------------
# bipartite sampling
# ---------------------------------------------------------------------------

class TestSampleBipartite:
    def test_p_zero(self):
        b = sample_bipartite(derive_params(50, 1.0, 0.0), rng())
        assert b.edge_count == 0 and b.m == 50

    def test_p_one(self):
        b = sample_aux_lists(6, 4, 1.0, rng())
        assert b.edge_count == 24
        for lst in b.lists():
            assert lst.tolist() == list(range(6))

    def test_lists_strictly_increasing(self):
        b = sample_aux_lists(30, 40, 0.2, rng(3))
        oracle.validate_bipartite(b)

    def test_mean_edge_count(self):
        # Binomial(n*m, p) total: n=m=1e4, p=1e-4 has mean 1e4, sd ~ 100
        params = derive_params(10_000, 1.0, 1.0)
        assert params.p == 1e-4
        g = rng(42)
        reps = 200
        counts = [sample_bipartite(params, g).edge_count for _ in range(reps)]
        se = math.sqrt(params.n * params.m * params.p * (1 - params.p) / reps)
        assert abs(np.mean(counts) - 10_000) < 3 * se

    def test_degenerate_heavy_lists(self):
        # p close to 1 exercises the permutation path
        b = sample_aux_lists(5, 200, 0.9, rng(1))
        oracle.validate_bipartite(b)

    @pytest.mark.parametrize("block", [1, 3])
    def test_any_block_size(self, monkeypatch, block):
        # the segment bases k*n are added to the draws block by block: any
        # block size gives the same graph from the same stream, with heavy,
        # repaired, empty and no lists
        cases = [(40, 30, 0.6), (500, 800, 0.004), (20, 60, 0.3), (7, 0, 0.5), (9, 5, 0.0)]
        want = [sample_aux_lists(n, m, p, rng(i)) for i, (n, m, p) in enumerate(cases)]
        monkeypatch.setattr(model, "BLOCK", block)
        for i, ((n, m, p), b0) in enumerate(zip(cases, want)):
            b = sample_aux_lists(n, m, p, rng(i))
            assert np.array_equal(b.offsets, b0.offsets)
            assert np.array_equal(b.members, b0.members)

    def test_fill_distinct_matches_loop_oracle(self):
        # the same subset and the same generator state after it, on 1,500
        # seeded cases from sparse (d << n) to dense (d = n) segments
        cases = rng(20261018)
        for case in range(1500):
            n = int(cases.integers(1, 400))
            d = int(cases.integers(1, n + 1))
            first = cases.integers(0, n, size=d)
            a = np.random.Generator(np.random.Philox(case))
            b = np.random.Generator(np.random.Philox(case))
            got = _fill_distinct(a, n, d, first)
            assert np.array_equal(got, oracle.fill_distinct_loop(b, n, d, first))
            np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)

    def test_stream_matches_loop_oracle(self):
        # the same offsets, members and generator state after it on 2,000
        # seeded (n, m, p): every tenth case has p = 0, m = 0 or p = 1; 659
        # cases repair at least one list, and 851 have a heavy one
        cases = rng(20261019)
        for case in range(2000):
            n = int(cases.integers(1, 61))
            m = 0 if case % 10 == 1 else int(cases.integers(0, 41))
            p = {0: 0.0, 2: 1.0}.get(case % 10, float(cases.uniform() ** cases.integers(1, 4)))
            a = np.random.Generator(np.random.Philox(case))
            b = np.random.Generator(np.random.Philox(case))
            got = sample_aux_lists(n, m, p, a)
            offsets, members = oracle.sample_aux_lists_loop(n, m, p, b)
            assert np.array_equal(got.offsets, offsets), (n, m, p)
            assert np.array_equal(got.members, members), (n, m, p)
            np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)

    # SHA-256 of offsets, members and the next draw, each as <i8 bytes
    @pytest.mark.parametrize("seed,n,m,p,digest", [
        (20261019, 100_000, 100_000, 1e-05,
         "9730c71102e1b60c683bc87d6854f259fd4dbc493d4222e52c0fa719ee2d0f89"),
        (20261020, 1_000_000, 1_000_000, 2e-06,
         "283e68d72def6bfd2d978bcbdb3e612c24d555ce09222bd44be6a7f3a115d4b0"),
        # mean list size 40 of 2,000: about a third of the lists are repaired
        (20261021, 2000, 3000, 0.02,
         "b68a414049d47410fd03bd6ca7076cb761c58a47770661f229e027906e99d301"),
    ], ids=["n1e5", "n1e6", "repairs"])
    def test_pinned_bulk_stream(self, seed, n, m, p, digest):
        g = np.random.Generator(np.random.Philox(seed))
        b = sample_aux_lists(n, m, p, g)
        got = hashlib.sha256(b.offsets.astype("<i8").tobytes()
                             + b.members.astype("<i8").tobytes()
                             + np.array([g.integers(0, 2 ** 62)], dtype="<i8").tobytes())
        assert got.hexdigest() == digest

    def test_int64_key_range(self):
        # the keys k*n + x reach m*n - 1, and numpy takes n as an int64
        for n, m in ((2 ** 62, 2), (2 ** 63 - 1, 1), (2 ** 63 - 1, 0)):
            model._check_bipartite_size(n, m, 0.0)
        for n, m in ((2 ** 62 + 1, 2), (2 ** 63, 1), (2 ** 63, 0)):
            with pytest.raises(ValueError, match=r"m\*n > 2\*\*63 or n >= 2\*\*63"):
                model._check_bipartite_size(n, m, 0.0)
        # at m*n = 2**63 the last key is 2**63 - 1: about nine members per list
        b = sample_aux_lists(2 ** 62, 2, 2e-18, rng(6))
        assert b.edge_count > 0
        oracle.validate_bipartite(b)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def shared_counts(b: BipartiteGraph) -> dict[tuple[int, int], int]:
    """Shared auxiliaries per vertex pair i < j that shares at least one."""
    counts = Counter()
    for lst in b.lists():
        counts.update(itertools.combinations(lst.tolist(), 2))
    return dict(counts)


class TestProjections:
    def test_empty(self):
        b = oracle.bipartite_from_lists(4, [[], []])
        g, eta = project_with_excess(b)
        assert g.edge_count == 0 and eta == 0

    def test_triangle(self):
        b = oracle.bipartite_from_lists(3, [[0, 1, 2]])
        g = project_simple(b)
        assert edge_set(g) == {(0, 1), (0, 2), (1, 2)}

    def test_two_lists(self):
        b = oracle.bipartite_from_lists(4, [[0, 1], [1, 2, 3]])
        assert edge_set(project_simple(b)) == {(0, 1), (1, 2), (1, 3), (2, 3)}

    def test_multiplicities(self):
        b = oracle.bipartite_from_lists(3, [[0, 1], [0, 1], [1, 2]])
        g, eta = project_with_excess(b)
        assert edge_set(g) == {(0, 1), (1, 2)} and eta == 1

    def test_parallel_pair(self):
        b = oracle.bipartite_from_lists(2, [[0, 1], [0, 1], [0, 1]])
        g, eta = project_with_excess(b)
        assert edge_set(g) == {(0, 1)} and eta == 2

    def test_excess_forced(self):
        # n=2, m=2, p=1: two parallel edges collapse to one
        b = sample_aux_lists(2, 2, 1.0, rng())
        assert project_with_excess(b)[1] == 1

    def test_project_with_excess_matches(self):
        b = sample_aux_lists(40, 50, 0.1, rng(9))
        shared = shared_counts(b)
        g, eta = project_with_excess(b)
        assert edge_set(g) == set(shared)
        assert eta == sum(c - 1 for c in shared.values())

    def test_edges_are_int32_columns_of_the_key_buffer(self):
        b = sample_aux_lists(300, 400, 0.02, rng(7))
        g, eta = project_with_excess(b)
        assert g.edge_count > 100
        assert g.u.dtype == g.v.dtype == np.int32
        assert (g.u < g.v).all()
        assert (np.diff(g.u.astype(np.int64) * g.n + g.v) > 0).all()  # sorted, unique
        assert edge_set(g) == set(shared_counts(b))
        # u and v are the two int32 columns over the pair keys' own buffer
        assert g.u.base is g.v.base and g.u.base.size == g.edge_count + eta

    def test_refuses_ids_beyond_int32(self):
        # the int64 pair keys i*n + j once wrapped silently at n**2 > 2**63
        # (this graph projected to u = -611686020); i << 32 | j needs i < 2**31
        n = 4_000_000_000
        b = BipartiteGraph(n=n, offsets=np.array([0, 2]), members=np.array([n - 2, n - 1]))
        with pytest.raises(ValueError, match=f"n={n} exceeds"):
            project_with_excess(b)
        n = model.MAX_VERTICES
        assert n == 2 ** 31 - 1
        b = BipartiteGraph(n=n, offsets=np.array([0, 2]), members=np.array([n - 2, n - 1]))
        g, eta = project_with_excess(b)
        assert edge_set(g) == {(n - 2, n - 1)} and eta == 0

    def test_adjacency_symmetric(self):
        b = sample_aux_lists(25, 30, 0.1, rng(5))
        g = project_simple(b)
        for v in range(g.n):
            for w in g.neighbors(v).tolist():
                assert v in g.neighbors(w).tolist()
                assert v != w


@st.composite
def bipartite_graphs(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 4))
    masks = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=m, max_size=m))
    lists = [[v for v in range(n) if (mk >> v) & 1] for mk in masks]
    return oracle.bipartite_from_lists(n, lists)


class TestProjectionProperties:
    # the multigraph: one edge per vertex pair per auxiliary they share,
    # held as the shared-auxiliary count of each pair
    @given(bipartite_graphs())
    @settings(max_examples=80, deadline=None)
    def test_multi_collapses_to_simple(self, b):
        collapsed = set(shared_counts(b))
        assert collapsed == edge_set(project_simple(b))
        assert edge_set(project_with_excess(b)[0]) == collapsed

    @given(bipartite_graphs())
    @settings(max_examples=80, deadline=None)
    def test_excess_nonnegative_and_consistent(self, b):
        counts = shared_counts(b)
        eta = project_with_excess(b)[1]
        assert eta == sum(counts.values()) - project_simple(b).edge_count
        assert eta >= 0
        if eta == 0:
            assert all(c == 1 for c in counts.values())

    @given(bipartite_graphs())
    @settings(max_examples=100, deadline=None)
    def test_multiplicity_counts_shared_auxiliaries(self, b):
        # edges: the pairs sharing an auxiliary, as sorted unique (u < v);
        # eta: the sum over those pairs of (shared auxiliaries - 1)
        shared = shared_counts(b)
        g, eta = project_with_excess(b)
        assert list(zip(g.u.tolist(), g.v.tolist())) == sorted(shared)
        assert eta == sum(c - 1 for c in shared.values())


# ---------------------------------------------------------------------------
# the block-by-block pair-key pass
# ---------------------------------------------------------------------------

# graphs whose auxiliaries straddle the block boundaries in every way
BLOCK_GRAPHS = {
    "no auxiliaries": lambda: oracle.bipartite_from_lists(5, []),
    "no members": lambda: oracle.bipartite_from_lists(5, [[], [], []]),
    "0 and 1 members": lambda: oracle.bipartite_from_lists(
        6, [[2], [], [0, 3], [1], [], [], [4], [0, 5], []]),
    "heavy": lambda: sample_aux_lists(40, 30, 0.6, rng(2)),
    "sparse": lambda: sample_aux_lists(500, 800, 0.004, rng(3)),
}


def pair_keys_oracle(b):
    """i << 32 | j for every pair i < j of every list, list by list."""
    return [i << 32 | j for lst in b.lists()
            for i, j in itertools.combinations(lst.tolist(), 2)]


def assert_same_projection(got, want):
    (g, eta), (g0, eta0) = got, want
    assert np.array_equal(g.u, g0.u) and np.array_equal(g.v, g0.v) and eta == eta0


class TestPairKeyBlocks:
    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    @pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
    def test_any_block_size(self, monkeypatch, name, block):
        b = BLOCK_GRAPHS[name]()
        keys, projection = _pair_keys(b), project_with_excess(b)
        assert keys.dtype == np.int64 and keys.tolist() == pair_keys_oracle(b)
        monkeypatch.setattr(model, "BLOCK", block)
        assert np.array_equal(_pair_keys(b), keys)
        assert_same_projection(project_with_excess(b), projection)

    def test_many_default_blocks(self, monkeypatch):
        # about 2e5 members and pair keys: several blocks of the default size,
        # against one block that holds them all
        b = sample_bipartite(derive_params(100_000, 1.0, 2.0), rng(4))
        assert b.edge_count > 2 * model.BLOCK
        keys, projection = _pair_keys(b), project_with_excess(b)
        assert keys.size > 2 * model.BLOCK
        monkeypatch.setattr(model, "BLOCK", 1 << 62)
        assert np.array_equal(_pair_keys(b), keys)
        assert_same_projection(project_with_excess(b), projection)


# ---------------------------------------------------------------------------
# statistics against closed forms and enumeration
# ---------------------------------------------------------------------------

class TestSamplingStatistics:
    def test_eta_mean_formula(self):
        # beta = gamma = 1 at n = 1000, 10^4 replicates
        params = derive_params(1000, 1.0, 1.0)
        g = rng(2024)
        reps = 10_000
        etas = np.array([project_with_excess(sample_bipartite(params, g))[1]
                         for _ in range(reps)])
        expected = oracle.exact_eta_mean(params.n, params.m, params.p)
        se = etas.std(ddof=1) / math.sqrt(reps)
        assert abs(etas.mean() - expected) < 3 * se

    def test_mean_degree_formula(self):
        params = derive_params(2000, 1.0, 1.5)
        g = rng(7)
        reps = 60
        means = []
        for _ in range(reps):
            sg = project_simple(sample_bipartite(params, g))
            means.append(2.0 * sg.edge_count / params.n)
        expected = (params.n - 1) * -math.expm1(params.m * math.log1p(-params.p ** 2))
        se = np.std(means, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(means) - expected) < 3 * se

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_edge_count_distribution_vs_enumeration(self, n, m):
        p = 0.5
        exact = oracle.exact_edge_count_pmf(n, m, p)
        g = rng(n * 17 + m)
        samples = 100_000
        counts = np.zeros(len(exact))
        for _ in range(samples):
            counts[project_simple(sample_aux_lists(n, m, p, g)).edge_count] += 1
        tv = 0.5 * np.abs(counts / samples - exact).sum()
        assert tv < 0.02


# ---------------------------------------------------------------------------
# dump format
# ---------------------------------------------------------------------------

class TestDumpFormat:
    def test_round_trip(self):
        b = sample_aux_lists(12, 7, 0.3, rng(11))
        buf = io.StringIO()
        write_bipartite(b, buf)
        back = oracle.read_dump(buf.getvalue())
        assert back.n == b.n
        assert np.array_equal(back.offsets, b.offsets)
        assert np.array_equal(back.members, b.members)

    def test_format_shape(self):
        b = oracle.bipartite_from_lists(4, [[0, 2], []])
        buf = io.StringIO()
        write_bipartite(b, buf)
        assert buf.getvalue() == "4 2\n0 2\n\n\n"

