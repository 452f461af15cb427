import ast
import hashlib
import io
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riglab import degree
from riglab.degree import (EXACT_PMF_BUDGET, CompoundPoissonSpec, DegreePmf,
                           cpoisson_gf, cpoisson_pmf, cpoisson_sample,
                           rig_degree_sample, rig_gf, rig_moments, rig_pmf,
                           rimg_log_gf, rimg_pmf, tv_distance)
from riglab.experiments import empirical_degree_pmf
from riglab.model import derive_params, project_simple, sample_aux_lists

import oracle


def rng(seed=0):
    return np.random.default_rng(seed)


def empirical_pmf(draws) -> DegreePmf:
    return DegreePmf(np.bincount(draws) / len(draws))


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# DegreePmf container
# ---------------------------------------------------------------------------

class TestDegreePmf:
    def test_validation(self):
        with pytest.raises(ValueError):
            DegreePmf(np.array([0.5, 0.4]))  # sums to 0.9
        with pytest.raises(ValueError):
            DegreePmf(np.array([1.1, -0.1]))
        with pytest.raises(ValueError):
            DegreePmf(np.array([np.nan, 1.0]))
        DegreePmf(np.array([0.9, 0.05]), tail=0.05)

    def test_csv_round_trip(self):
        pmf = cpoisson_pmf(CompoundPoissonSpec(1.0, 2.0), 50)
        buf = io.StringIO()
        pmf.write_csv(buf)
        back = oracle.read_degree_csv(buf.getvalue())
        assert np.array_equal(back.probs, pmf.probs)
        assert back.tail == pmf.tail

    def test_csv_shape(self):
        buf = io.StringIO()
        DegreePmf(np.array([0.75, 0.25])).write_csv(buf)
        assert buf.getvalue() == "degree,probability\n0,0.75\n1,0.25\ntail,0.0\n"


# ---------------------------------------------------------------------------
# simple-projection degree law
# ---------------------------------------------------------------------------

class TestRigGf:
    def test_normalization(self):
        for m, n, p in [(1, 2, 0.5), (3, 7, 0.2), (10, 40, 0.05)]:
            assert rig_gf(m, n, p, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert rig_gf(1, 2, 0.5, 0.0) == pytest.approx(0.75, abs=1e-15)

    def test_p_zero(self):
        assert rig_gf(4, 9, 0.0, 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_z_outside_unit(self):
        with pytest.raises(ValueError):
            rig_gf(1, 2, 0.5, 1.5)
        with pytest.raises(ValueError):
            rig_gf(1, 2, 0.5, -0.1)

    def test_matches_pmf_series(self):
        for m, n, p in [(2, 5, 0.3), (3, 4, 0.5), (1, 6, 0.8)]:
            pmf = rig_pmf(m, n, p)
            for z in (0.0, 0.3, 0.77, 1.0):
                series = float(pmf.probs @ z ** np.arange(n))
                assert rig_gf(m, n, p, z) == pytest.approx(series, abs=1e-10)

    def test_matches_pmf_series_large_n(self):
        params = derive_params(10 ** 5, 1.0, 1.0)
        pmf = rig_pmf(params.m, params.n, params.p)
        for z in (0.0, 0.3, 0.9, 0.999, 1.0):
            series = float(pmf.probs @ z ** np.arange(params.n))
            assert abs(rig_gf(params.m, params.n, params.p, z) - series) <= 1e-12

    @pytest.mark.parametrize("beta,gamma", [(1.0, 50.0), (2.0, 40.0)])
    def test_relative_accuracy_at_large_mean(self, beta, gamma):
        # at beta*gamma >= 50 the rows N = 0, 1 weigh under 1e-20, yet at
        # z = e^-5 they carry most of the gf, which is then near 1e-22
        params = derive_params(10 ** 4, beta, gamma)
        for s in (5.0, 1.0, 0.01):
            z = math.exp(-s)
            ref = oracle.degree_gf_by_marks(params.m, params.n, params.p, z)
            assert rig_gf(params.m, params.n, params.p, z) == pytest.approx(ref, rel=1e-9, abs=0)

    def test_derivative_matches_mean_large_n(self):
        # rig_gf rejects z > 1, so the difference at 1 is one-sided
        params = derive_params(10 ** 6, 1.0, 1.0)
        f = lambda z: rig_gf(params.m, params.n, params.p, z)
        mean = rig_moments(params.m, params.n, params.p)[0]
        assert richardson(backward_d1, f, 1.0, 3e-4, 2) == pytest.approx(mean, rel=1e-9)


class TestRigPmf:
    def test_point_mass_p_zero(self):
        pmf = rig_pmf(5, 8, 0.0)
        assert pmf.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        pmf = rig_pmf(1, 2, 0.5)
        assert pmf.probs == pytest.approx([0.75, 0.25], abs=1e-14)

    def test_vs_enumeration(self):
        exact = oracle.exact_degree_pmf(4, 3, 0.5)
        pmf = rig_pmf(3, 4, 0.5)
        assert np.abs(pmf.probs - exact).max() < 1e-12

    @pytest.mark.parametrize("n", [20, 100, 200])
    @pytest.mark.parametrize("beta,gamma", [(1.0, 1.0), (0.5, 2.0), (3.0, 0.7),
                                            (14.0, 0.5)])
    def test_vs_alternating_sum(self, n, beta, gamma):
        params = derive_params(n, beta, gamma)
        pmf = rig_pmf(params.m, n, params.p)
        ref = oracle.alternating_degree_pmf(params.m, n, params.p)
        assert np.abs(pmf.probs - ref).max() <= 1e-12
        assert pmf.tail <= 1e-12

    @pytest.mark.parametrize("n", [10 ** 4, 10 ** 5])
    @pytest.mark.parametrize("beta,gamma", [(1.0, 1.0), (2.0, 1.5)])
    def test_large_n_normalised_with_exact_mean(self, n, beta, gamma):
        params = derive_params(n, beta, gamma)
        pmf = rig_pmf(params.m, n, params.p)
        assert len(pmf.probs) == n
        assert abs(pmf.probs.sum() + pmf.tail - 1.0) <= 1e-12
        assert abs(pmf.mean() - rig_moments(params.m, n, params.p)[0]) <= 1e-9

    def test_exact_mode_budget(self):
        # the padded degrees alone exceed the budget at alpha = 1, and at
        # alpha = 0 with many auxiliaries per vertex the mixture block does
        with pytest.raises(ValueError, match="budget"):
            rig_pmf(EXACT_PMF_BUDGET, EXACT_PMF_BUDGET, 1.0 / EXACT_PMF_BUDGET)
        params = derive_params(10 ** 6, 10 ** 5, 1.0, alpha=0.0)
        with pytest.raises(ValueError, match="budget"):
            rig_pmf(params.m, params.n, params.p)

    def test_empirical_requires_rng(self):
        with pytest.raises(ValueError, match="samples >= 1"):
            empirical_degree_pmf(10, 10, 0.1, rng(), 0)

    def test_empirical_matches_exact(self):
        # graph-sampled vertex degrees vs the exact law
        m = n = 50
        p = 1.0 / n
        emp = empirical_degree_pmf(m, n, p, rng(3), 100_000)
        assert tv_distance(emp, rig_pmf(m, n, p)) < 0.02

    def test_empirical_peak_is_one_graph(self):
        # degrees are counted graph by graph, so ten times the samples add at
        # most one graph's worth to the traced peak
        params = derive_params(100, 1.0, 1.0)
        m, n, p = params.m, params.n, params.p
        run = lambda samples: empirical_degree_pmf(m, n, p, rng(2), samples)
        assert run(1000).probs[-1] > 0  # trimmed to the largest degree seen
        one_graph = traced_peak(lambda: project_simple(sample_aux_lists(n, m, p, rng(1))).degrees())
        assert traced_peak(lambda: run(200_000)) <= traced_peak(lambda: run(20_000)) + one_graph

    # SHA-256 of probs and tail, frozen from rig_pmf(mode="empirical") before
    # it moved to experiments: the same draws in the same order, the same trim
    @pytest.mark.parametrize("point,seed,samples,want", [
        ((100, 1.0, 1.0, 1.0), 5, 1000, "4a9d73563a2b9a90"),
        ((300, 0.5, 2.0, 1.0), 1, 5000, "5e13d378ea3177fc"),
        ((200, 1.0, 1.0, 0.0), 3, 2000, "b31bdc7416897a74")])
    def test_empirical_frozen(self, point, seed, samples, want):
        params = derive_params(*point)
        pmf = empirical_degree_pmf(params.m, params.n, params.p, rng(seed), samples)
        assert TestFrozenMixtures.digest(pmf) == want

    def test_degree_does_not_import_the_sampler(self):
        # the degree laws are closed forms; graph sampling lives in model.py
        imported = []
        for node in ast.walk(ast.parse(Path(degree.__file__).read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported += [getattr(node, "module", None) or ""]
                imported += [alias.name for alias in node.names]
        assert not [name for name in imported if name.split(".")[-1] == "model"]

    def test_marginal_sampler_matches_exact(self):
        m = n = 80
        p = 1.5 / n
        draws = rig_degree_sample(m, n, p, rng(4), size=200_000)
        assert tv_distance(empirical_pmf(draws), rig_pmf(m, n, p)) < 0.01


def backward_d1(f, x, h):
    return (3 * f(x) - 4 * f(x - h) + f(x - 2 * h)) / (2 * h)


def backward_d2(f, x, h):
    return (2 * f(x) - 5 * f(x - h) + 4 * f(x - 2 * h) - f(x - 3 * h)) / h ** 2


def richardson(d, f, x, h, order):
    # one extrapolation step for a scheme with leading error O(h^order)
    w = 2 ** order
    return (w * d(f, x, h / 2) - d(f, x, h)) / (w - 1)


class TestRigMoments:
    def test_trivial(self):
        assert rig_moments(3, 9, 0.0) == (0.0, 0.0)
        assert rig_moments(1, 2, 1.0) == (1.0, 0.0)

    def test_complete_graph(self):
        mean, sec = rig_moments(1, 5, 1.0)
        assert mean == 4.0 and sec == 12.0

    def test_vs_gf_derivatives(self):
        for m, n, p in [(2, 5, 0.3), (3, 4, 0.5), (4, 10, 0.15)]:
            mean, sec = rig_moments(m, n, p)
            f = lambda z: rig_gf(m, n, p, z)
            d1 = richardson(backward_d1, f, 1.0, 3e-4, 2)
            d2 = richardson(backward_d2, f, 1.0, 3e-4, 2)
            assert d1 == pytest.approx(mean, rel=1e-6)
            assert d2 == pytest.approx(sec, rel=1e-6)

    def test_vs_enumeration_mean(self):
        n, m, p = 4, 3, 0.5
        exact = oracle.exact_degree_pmf(n, m, p)
        k = np.arange(n)
        mean, sec = rig_moments(m, n, p)
        assert mean == pytest.approx(float(k @ exact), abs=1e-12)
        assert sec == pytest.approx(float((k * (k - 1)) @ exact), abs=1e-12)

    def test_large_n_limit(self):
        # beta = gamma = 1: mean -> mu = 1 and E[D^2] -> mu(1+mu+gamma) = 3
        m = n = 10 ** 6
        mean, sec = rig_moments(m, n, 1.0 / n)
        assert abs(mean - 1.0) < 1e-4
        assert abs((sec + mean) - 3.0) < 1e-3


# ---------------------------------------------------------------------------
# compound Poisson limit
# ---------------------------------------------------------------------------

class TestCompoundPoisson:
    def test_gf_normalization(self):
        assert cpoisson_gf(CompoundPoissonSpec(2.0, 0.7), 1.0) == 1.0

    def test_gf_hand_value(self):
        assert cpoisson_gf(CompoundPoissonSpec(1.0, 1.0), 0.0) == \
            pytest.approx(0.5314636053866156, abs=1e-15)

    def test_gf_degenerate(self):
        spec = CompoundPoissonSpec(0.0, 3.0)
        for s in (0.0, 0.5, 1.0):
            assert cpoisson_gf(spec, s) == 1.0

    def test_gf_rejects_s_outside_unit(self):
        with pytest.raises(ValueError):
            cpoisson_gf(CompoundPoissonSpec(1.0, 1.0), 1.2)

    def test_pmf_point_mass(self):
        pmf = cpoisson_pmf(CompoundPoissonSpec(0.0, 2.0), 5)
        assert pmf.probs[0] == 1.0 and pmf.tail == 0.0
        pmf = cpoisson_pmf(CompoundPoissonSpec(3.0, 0.0), 5)
        assert pmf.probs[0] == pytest.approx(1.0, abs=1e-15) and not pmf.probs[1:].any()

    def test_pmf_tiny_rates(self):
        # kmax / lambda2 = 2.1e6 outer events, clipped at 1000 rows
        spec = CompoundPoissonSpec(1e-5, 1e-5)
        assert cpoisson_pmf(spec).probs[0] == pytest.approx(cpoisson_gf(spec, 0.0), rel=1e-15)

    @pytest.mark.parametrize("l1,l2,kmax", [
        (1.0, 2.0, None), (1.0, 2.0, 400), (2.0, 0.5, None), (2.0, 0.5, 400),
        (0.7, 0.7, None), (0.7, 0.7, 400), (0.05, 3.0, None), (0.05, 3.0, 400),
        (280.0, 0.7, 400)])
    def test_pmf_far_tail_vs_log_space_oracle(self, l1, l2, kmax):
        # every entry a double holds, and the tail, to 1e-12 relative: the
        # far tail needs far more outer events than the bulk of Poisson(l1)
        pmf = cpoisson_pmf(CompoundPoissonSpec(l1, l2), kmax)
        kmax = len(pmf.probs) - 1
        ref = np.exp(oracle.cpoisson_log_pmf(l1, l2, 2 * kmax + 200))
        tail = ref[kmax + 1:].sum()
        assert ref[-1] <= 1e-16 * tail  # the oracle's own tail has converged
        held = pmf.probs >= 1e-300
        assert np.abs(pmf.probs[held] / ref[:kmax + 1][held] - 1.0).max() <= 1e-12
        assert abs(pmf.tail - tail) <= 1e-12 * tail

    def test_pmf_budget(self):
        # at lambda1 = 1e5 the block would hold 108,668 x 105,388 entries
        def refused():
            with pytest.raises(ValueError, match="budget"):
                cpoisson_pmf(CompoundPoissonSpec(1e5, 1.0))
        assert traced_peak(refused) < 10 * 10 ** 6

    def test_pmf_rows_stop_at_last_weight(self):
        # Poisson(1) weights underflow from j = 178 on: 178 rows of 5,001
        # degrees fit the budget, where 1,001 rows did not
        pmf = cpoisson_pmf(CompoundPoissonSpec(1.0, 1.0), 5000)
        assert len(pmf.probs) == 5001 and pmf.tail == 0.0
        assert pmf.probs[0] == pytest.approx(cpoisson_gf(CompoundPoissonSpec(1.0, 1.0), 0.0),
                                             rel=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("name", ["lambda1", "lambda2"])
    def test_spec_rejects_bad_rate(self, name, bad):
        rates = {"lambda1": 1.0, "lambda2": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            CompoundPoissonSpec(**rates)

    def test_pmf_zero_entry_equals_gf(self):
        spec = CompoundPoissonSpec(1.0, 1.0)
        pmf = cpoisson_pmf(spec, 40)
        assert pmf.probs[0] == pytest.approx(cpoisson_gf(spec, 0.0), abs=1e-12)

    def test_pmf_mean(self):
        for l1, l2 in [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0)]:
            pmf = cpoisson_pmf(CompoundPoissonSpec(l1, l2), 120)
            assert abs(pmf.mean() - l1 * l2) < 1e-6

    def test_pmf_rejects_fat_tail(self):
        with pytest.raises(ValueError):
            cpoisson_pmf(CompoundPoissonSpec(1.0, 1.0), 0)

    def test_pmf_vs_gf_taylor(self):
        # derivatives of the gf at 0 are an independent route to the pmf
        l1, l2 = 1.5, 0.8
        pmf = cpoisson_pmf(CompoundPoissonSpec(l1, l2), 30)
        with mpmath.workdps(40):
            gz = lambda s: mpmath.exp(l1 * (mpmath.exp(l2 * (s - 1)) - 1))
            coeffs = mpmath.taylor(gz, 0, 8)
        for k, c in enumerate(coeffs):
            assert pmf.probs[k] == pytest.approx(float(c), abs=1e-10)

    def test_sample_degenerate(self):
        draws = cpoisson_sample(CompoundPoissonSpec(0.0, 5.0), rng(), size=1000)
        assert not draws.any()

    def test_sample_mean(self):
        draws = cpoisson_sample(CompoundPoissonSpec(1.0, 1.0), rng(10), size=10 ** 6)
        se = math.sqrt(2.0 / 10 ** 6)  # Var = l1 l2 (1 + l2) = 2
        assert abs(draws.mean() - 1.0) < 3 * se

    def test_sample_vs_pmf_tv(self):
        spec = CompoundPoissonSpec(1.0, 1.0)
        draws = cpoisson_sample(spec, rng(11), size=10 ** 6)
        assert tv_distance(empirical_pmf(draws), cpoisson_pmf(spec, 60)) < 0.005


# ---------------------------------------------------------------------------
# multigraph degree law
# ---------------------------------------------------------------------------

class TestRimg:
    def test_normalization(self):
        assert math.exp(rimg_log_gf(3, 5, 0.4, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_sure_positive_degree(self):
        assert math.exp(rimg_log_gf(1, 3, 1.0, 0.0)) == 0.0

    def test_above_one_allowed(self):
        assert math.exp(rimg_log_gf(2, 4, 0.3, 1.5)) > 1.0

    def test_overflow_rejected(self):
        # the log form stays finite where the linear form overflows
        assert rimg_log_gf(10 ** 6, 10 ** 6, 0.5, 100.0) > 709

    def test_derivative_matches_mean(self):
        # gf'(1) = m (n-1) p^2, the multigraph mean degree
        for m, n, p in [(10, 20, 0.1), (50, 30, 0.05)]:
            h = 1e-4
            d = (math.exp(rimg_log_gf(m, n, p, 1 + h))
                 - math.exp(rimg_log_gf(m, n, p, 1 - h))) / (2 * h)
            assert d == pytest.approx(m * (n - 1) * p * p, rel=1e-6)

    def test_pmf_vs_enumeration(self):
        n, m, p = 3, 3, 0.5
        exact = oracle.exact_multi_degree_pmf(n, m, p)
        pmf = rimg_pmf(m, n, p)
        assert np.abs(pmf.probs - exact).max() < 1e-12

    @pytest.mark.parametrize("kmax", [None, 2])
    def test_pmf_tail_vs_enumeration(self, kmax):
        # the tail is each row's exact mass beyond kmax, not 1 - sum(probs)
        n, m, p = 3, 3, 0.5
        exact = oracle.exact_multi_degree_pmf(n, m, p)
        pmf = rimg_pmf(m, n, p, kmax)
        assert abs(pmf.tail - exact[len(pmf.probs):].sum()) <= 1e-15

    def test_pmf_matches_gf_series(self):
        m, n, p = 3, 4, 0.3
        pmf = rimg_pmf(m, n, p)
        for z in (0.0, 0.5, 1.3):
            series = float(pmf.probs @ z ** np.arange(len(pmf.probs)))
            assert math.exp(rimg_log_gf(m, n, p, z)) == pytest.approx(series, abs=1e-10)

    def test_pmf_budget(self):
        # m = n = 400 would need a 58 x 159,601 block, about 0.7 GB with its
        # temporaries; it is refused before anything is allocated
        def refused():
            with pytest.raises(ValueError, match="budget"):
                rimg_pmf(400, 400, 0.01)
        assert traced_peak(refused) < 2 ** 20
        with pytest.raises(ValueError, match="budget"):
            rimg_pmf(10, 10, 0.1, kmax=EXACT_PMF_BUDGET)
        assert len(rimg_pmf(10, 10, 0.1, kmax=50).probs) == 51

    def test_pmf_wide_support(self):
        # degrees far beyond what few auxiliaries can reach have zero mass
        m, n, p = 5, 10, 0.2
        pmf = rimg_pmf(m, n, p)
        assert abs(pmf.probs.sum() - 1.0) < 1e-12
        assert math.exp(rimg_log_gf(m, n, p, 0.5)) == pytest.approx(
            float(pmf.probs @ 0.5 ** np.arange(len(pmf.probs))), abs=1e-12)


class TestDominance:
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 3), (3, 3)])
    def test_multigraph_dominates_simple(self, n, m, p):
        rig = rig_pmf(m, n, p)
        rimg = rimg_pmf(m, n, p)
        k = max(len(rig.probs), len(rimg.probs))
        cdf_rig = np.cumsum(np.pad(rig.probs, (0, k - len(rig.probs))))
        cdf_rimg = np.cumsum(np.pad(rimg.probs, (0, k - len(rimg.probs))))
        assert np.all(cdf_rimg <= cdf_rig + 1e-12)


class TestFrozenMixtures:
    """SHA-256 of the probs and tail bytes of rig_pmf, rimg_pmf and
    cpoisson_pmf, frozen with numpy 2.4 and scipy 1.17 on x86-64: a change to
    the shared mixture block must keep the mixtures bit for bit."""

    @staticmethod
    def digest(pmf: DegreePmf) -> str:
        return hashlib.sha256(pmf.probs.tobytes() + np.float64(pmf.tail).tobytes()).hexdigest()[:16]

    @pytest.mark.parametrize("args,want", [
        ((200, 200, 0.005), "6319740031177e78"),
        ((50, 30, 0.07), "6b5b210f8b7822a5"),
        ((2000, 1000, 1.5e-3), "4f6c51b9ac20f4fe")])
    def test_rig_pmf(self, args, want):
        assert self.digest(rig_pmf(*args)) == want

    @pytest.mark.parametrize("args,want", [
        ((3, 3, 0.5), "3d95d99b17be53a5"),
        ((10, 10, 0.1), "b3ae56d0178d31de"),
        ((40, 20, 0.05, 60), "c35daad507ed9284")])
    def test_rimg_pmf(self, args, want):
        assert self.digest(rimg_pmf(*args)) == want

    # frozen with every row up to the bulk of kmax / lambda2 computed: at 16
    # of these 24 specs the rows past the last nonzero weight must add nothing
    @pytest.mark.parametrize("args,want", [
        ((0.05, 0.05, None), "a5e13af323561a27"), ((0.05, 0.05, 400), "0e2c5bcbec6a6f2b"),
        ((0.05, 0.5, None), "30eea61079d2d914"), ((0.05, 0.5, 400), "c18593bf2356ff09"),
        ((0.05, 3, None), "e477edcfe3901674"), ((0.05, 3, 400), "4ffee016c5309404"),
        ((1, 0.05, None), "786585704edeea52"), ((1, 0.05, 400), "eed155e3f84f83d7"),
        ((1, 0.5, None), "71339f0ed31bf96b"), ((1, 0.5, 400), "46fdb188b22ee486"),
        ((1, 3, None), "e6fe26b8ce6df616"), ((1, 3, 400), "61c1ec2922d6bedf"),
        ((5, 0.05, None), "89a9855ee76f5874"), ((5, 0.05, 400), "8ce14134a4ecb839"),
        ((5, 0.5, None), "f5db8b1cc2b3b5b8"), ((5, 0.5, 400), "ed6e8466d5f6a96c"),
        ((5, 3, None), "8939fb4859012703"), ((5, 3, 400), "8c56151263abc368"),
        ((50, 0.05, None), "2fab3dfe2659c9ed"), ((50, 0.05, 400), "e4c44f6bd431f4c7"),
        ((50, 0.5, None), "bcbbac77d97fc292"), ((50, 0.5, 400), "e308c450e367aa7c"),
        ((50, 3, None), "e77efa9ed289aa4b"), ((50, 3, 400), "eaf99c30254b24b3")])
    def test_cpoisson_pmf(self, args, want):
        l1, l2, kmax = args
        assert self.digest(cpoisson_pmf(CompoundPoissonSpec(l1, l2), kmax)) == want


# ---------------------------------------------------------------------------
# total variation distance
# ---------------------------------------------------------------------------

class TestTvDistance:
    def test_identical(self):
        pmf = cpoisson_pmf(CompoundPoissonSpec(1.0, 1.0), 30)
        assert tv_distance(pmf, pmf) == 0.0

    def test_disjoint_point_masses(self):
        a = DegreePmf(np.array([1.0]))
        b = DegreePmf(np.array([0.0, 1.0]))
        assert tv_distance(a, b) == 1.0

    def test_symmetric_and_bounded(self):
        a = DegreePmf(np.array([0.5, 0.3, 0.2]))
        b = DegreePmf(np.array([0.1, 0.6]), tail=0.3)
        assert tv_distance(a, b) == tv_distance(b, a)
        assert 0.0 <= tv_distance(a, b) <= 1.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_pairs_in_range(self, seed):
        g = np.random.default_rng(seed)
        a = g.dirichlet(np.ones(5))
        b = g.dirichlet(np.ones(7))
        d = tv_distance(DegreePmf(a), DegreePmf(b))
        assert 0.0 <= d <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# convergence to the compound Poisson limit
# ---------------------------------------------------------------------------

class TestLimitConvergence:
    def test_tv_decreases_with_n(self):
        # quick version of the acceptance check, exact pmf at small n
        limit = cpoisson_pmf(CompoundPoissonSpec(1.0, 1.0), 80)
        tvs = [tv_distance(rig_pmf(n, n, 1.0 / n), limit) for n in (25, 50, 100, 200)]
        assert all(a > b for a, b in zip(tvs, tvs[1:]))
        assert tvs[-1] < 0.02

    def test_tv_order_one_over_n(self):
        # n * TV(law_n, CPoisson(1, 1)) settles near 0.3597 from n = 1e3 on
        limit = cpoisson_pmf(CompoundPoissonSpec(1.0, 1.0), 80)
        scaled = [n * tv_distance(rig_pmf(n, n, 1.0 / n), limit)
                  for n in (10 ** 3, 10 ** 4, 10 ** 5)]
        assert max(scaled) / min(scaled) - 1.0 <= 0.01
        assert 0.35 < min(scaled)
