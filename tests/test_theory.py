import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from riglab.degree import CompoundPoissonSpec, rig_degree_sample, rig_gf, rimg_log_gf
from riglab.theory import (CompoundPoissonOffspring, RigDegreeOffspring,
                           branching_total, chernoff_lower, chernoff_upper,
                           extinction_mc, limit_degree_gf, solve_extinction)


def rng(seed=0):
    return np.random.default_rng(seed)


class ConstantOffspring:
    """Deterministic offspring count."""

    def __init__(self, value: int):
        self.value = int(value)

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value, dtype=np.int64)

    def total_children(self, rng, pop: int) -> int:
        return self.value * pop


# ---------------------------------------------------------------------------
# limiting generating function and its fixed point
# ---------------------------------------------------------------------------

class TestLimitGf:
    def test_normalization(self):
        assert limit_degree_gf(1.0, 2.0, 1.0) == 1.0

    def test_hand_value(self):
        assert limit_degree_gf(1.0, 1.0, 0.0) == \
            pytest.approx(0.5314636053866156, abs=1e-15)

    def test_increasing_and_convex(self):
        s = np.linspace(0.0, 1.0, 100)
        vals = np.array([limit_degree_gf(1.0, 2.0, t) for t in s])
        assert (np.diff(vals) > 0).all()
        assert (np.diff(vals, 2) > -1e-12).all()


class TestSolveExtinction:
    def test_subcritical_is_one(self):
        r = solve_extinction(1.0, 0.9)
        assert r.rho == 1.0
        assert r.regime == "subcritical"
        assert r.residual <= 1e-12

    def test_supercritical_value(self):
        r = solve_extinction(1.0, 2.0)
        assert r.regime == "supercritical"
        assert r.converged
        assert r.residual <= 1e-12
        assert r.rho == pytest.approx(0.20318786997997, abs=1e-9)

    def test_vs_independent_root_finder(self):
        for beta, gamma in [(1.0, 2.0), (2.0, 1.0), (0.5, 3.0), (1.0, 1.5)]:
            r = solve_extinction(beta, gamma)
            ref = brentq(lambda t: limit_degree_gf(beta, gamma, t) - t,
                         0.0, 1.0 - 1e-9, xtol=1e-14)
            assert r.rho == pytest.approx(ref, abs=1e-9)

    def test_critical(self):
        r = solve_extinction(4.0, 0.5)
        assert r.mu == 1.0
        assert r.regime == "critical"
        assert r.rho == 1.0

    def test_degenerate_offspring(self):
        r = solve_extinction(0.0, 3.0)
        assert r.rho == 1.0 and r.regime == "subcritical"

    def test_rho_is_smallest_root(self):
        r = solve_extinction(1.0, 2.0)
        xs = np.linspace(0.0, r.rho * (1 - 1e-9), 1000)
        assert all(limit_degree_gf(1.0, 2.0, x) > x for x in xs)

    @given(st.floats(0.1, 3.0), st.floats(0.1, 2.5))
    @settings(max_examples=60, deadline=None)
    def test_residual_and_range(self, beta, gamma):
        r = solve_extinction(beta, gamma)
        assert 0.0 < r.rho <= 1.0
        assert r.residual <= 1e-12
        if r.mu > 1.0:
            assert r.rho < 1.0
        else:
            assert r.rho == 1.0


# ---------------------------------------------------------------------------
# branching processes
# ---------------------------------------------------------------------------

class TestBranching:
    def test_no_offspring(self):
        assert branching_total(ConstantOffspring(0), 100, rng()) == 1

    def test_deterministic_line_survives(self):
        assert branching_total(ConstantOffspring(1), 100, rng()) is None

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            branching_total(ConstantOffspring(0), 0, rng())

    def test_extinction_certain(self):
        est, se = extinction_mc(ConstantOffspring(0), 500, 100, rng())
        assert est == 1.0 and se == 0.0

    def test_extinction_never(self):
        est, _ = extinction_mc(ConstantOffspring(2), 500, 1000, rng())
        assert est == 0.0

    def test_cpoisson_extinction_matches_fixed_point(self):
        # offspring CPoisson(2,2) <-> beta=1, gamma=2
        rho = solve_extinction(1.0, 2.0).rho
        off = CompoundPoissonOffspring(CompoundPoissonSpec(2.0, 2.0))
        est, se = extinction_mc(off, 20_000, 100_000, rng(5))
        assert abs(est - rho) < 3 * se

    def test_rig_offspring_extinction_matches_fixed_point(self):
        # finite-n degree law transfers to the same limit (n = 1e4)
        n = 10_000
        rho = solve_extinction(1.0, 2.0).rho
        off = RigDegreeOffspring(n, n, 2.0 / n)
        est, se = extinction_mc(off, 4000, 20_000, rng(6))
        assert abs(est - rho) < 3 * se

    def test_cap_sensitivity(self):
        # the cap convention biases one way (survived can only be overstated),
        # and the bias is buried in Monte Carlo noise at these caps
        rho = solve_extinction(1.0, 2.0).rho
        off = CompoundPoissonOffspring(CompoundPoissonSpec(2.0, 2.0))
        est1, se1 = extinction_mc(off, 5000, 10_000, rng(7))
        est2, se2 = extinction_mc(off, 5000, 20_000, rng(77))
        assert est1 <= est2 + 3 * (se1 + se2)
        assert abs(est1 - rho) < 3 * se1
        assert abs(est2 - rho) < 3 * se2

    def test_subcritical_always_extinct(self):
        off = CompoundPoissonOffspring(CompoundPoissonSpec(0.9, 0.9))
        est, _ = extinction_mc(off, 2000, 100_000, rng(8))
        assert est == 1.0

    def test_offspring_samplers_agree_with_totals(self):
        # pooled-generation shortcut must match the plain sample() law
        off = CompoundPoissonOffspring(CompoundPoissonSpec(1.0, 2.0))
        a = np.array([off.total_children(rng(100 + i), 7) for i in range(4000)])
        b = np.array([off.sample(rng(10_000 + i), size=7).sum() for i in range(4000)])
        assert abs(a.mean() - b.mean()) < 4 * (a.std() + b.std()) / math.sqrt(4000)
        assert abs(a.mean() - 7 * 2.0) < 4 * a.std() / math.sqrt(4000)


# ---------------------------------------------------------------------------
# Chernoff-style tail bounds
# ---------------------------------------------------------------------------

def sum_params(n=200, beta=1.0, gamma=1.0):
    m = int(beta * n)
    return m, n, gamma / n, beta * gamma * gamma


class TestChernoffUpper:
    def test_definitional_power(self):
        m, n, p, mu = sum_params()
        b1 = chernoff_upper(m, n, p, mu, 100, 0.5)
        b2 = chernoff_upper(m, n, p, mu, 200, 0.5)
        assert b2.bound == pytest.approx(b1.bound ** 2, rel=1e-10)
        assert b2.log_bound == pytest.approx(2 * b1.log_bound, rel=1e-12)

    def test_rate_constant_in_k(self):
        m, n, p, mu = sum_params()
        rates = [chernoff_upper(m, n, p, mu, k, 0.5).log_bound / k
                 for k in (1, 10, 200, 4000)]
        assert max(rates) - min(rates) < 1e-10

    def test_rejects_bad_arguments(self):
        m, n, p, mu = sum_params()
        with pytest.raises(ValueError):
            chernoff_upper(m, n, p, mu, 10, 0.0)
        with pytest.raises(ValueError):
            chernoff_upper(m, n, p, 0.0, 10, 0.5)
        with pytest.raises(ValueError):
            chernoff_upper(m, n, p, mu, 0, 0.5)

    def test_vacuous_flag(self):
        m, n, p, _ = sum_params()
        tb = chernoff_upper(m, n, p, 0.1, 10, 0.5)  # threshold below the mean
        assert tb.vacuous and tb.bound == 1.0

    def test_monotone_in_delta(self):
        m, n, p, mu = sum_params()
        bounds = [chernoff_upper(m, n, p, mu, 50, d).bound
                  for d in (0.2, 0.5, 1.0, 2.0)]
        assert all(a >= b - 1e-15 for a, b in zip(bounds, bounds[1:]))

    def test_optimum_beats_probed_grid(self):
        m, n, p, mu = sum_params()
        tb = chernoff_upper(m, n, p, mu, 1, 0.5)
        for s in np.linspace(1e-6, 5.0, 50):
            log_f = -s * 1.5 * mu + rimg_log_gf(m, n, p, math.exp(s))
            assert tb.log_bound <= log_f + 1e-10

    def test_markov_step_sound(self):
        # empirical tail <= f(s)^k + 3 SE for every probed s
        m, n, p, mu = sum_params(n=200)
        k, delta, reps = 10, 0.5, 20_000
        sums = rig_degree_sample(m, n, p, rng(21), size=(reps, k)).sum(axis=1)
        emp = float((sums >= (1 + delta) * mu * k).mean())
        se = math.sqrt(max(emp * (1 - emp), 1e-12) / reps)
        for s in (0.1, 0.3, 0.5, 1.0):
            f = math.exp(-s * (1 + delta) * mu + rimg_log_gf(m, n, p, math.exp(s)))
            assert emp <= min(f, 1.0) ** k + 3 * se

    def test_bound_dominates_empirical(self):
        m, n, p, mu = sum_params(n=200)
        k, delta, reps = 50, 0.5, 20_000
        tb = chernoff_upper(m, n, p, mu, k, delta)
        sums = rig_degree_sample(m, n, p, rng(22), size=(reps, k)).sum(axis=1)
        emp = float((sums >= (1 + delta) * mu * k).mean())
        se = math.sqrt(max(emp * (1 - emp), 1e-12) / reps)
        assert emp <= tb.bound + 3 * se


class TestChernoffLower:
    def test_definitional_power(self):
        m, n, p, mu = sum_params()
        b1 = chernoff_lower(m, n, p, mu, 200, 0.5)
        b2 = chernoff_lower(m, n, p, mu, 400, 0.5)
        assert b2.bound == pytest.approx(b1.bound ** 2, rel=1e-10)

    def test_rejects_delta_outside_unit(self):
        m, n, p, mu = sum_params()
        for d in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                chernoff_lower(m, n, p, mu, 10, d)

    def test_bound_is_probability_bound(self):
        m, n, p, mu = sum_params()
        for d in (0.1, 0.5, 0.9, 0.999):
            tb = chernoff_lower(m, n, p, mu, 20, d)
            assert 0.0 < tb.bound <= 1.0

    def test_monotone_in_delta(self):
        m, n, p, mu = sum_params()
        bounds = [chernoff_lower(m, n, p, mu, 50, d).bound
                  for d in (0.2, 0.5, 0.8)]
        assert all(a >= b - 1e-15 for a, b in zip(bounds, bounds[1:]))

    def test_rate_constant_in_k(self):
        m, n, p, mu = sum_params()
        rates = [chernoff_lower(m, n, p, mu, k, 0.5).log_bound / k
                 for k in (1, 7, 100, 2000)]
        assert max(rates) - min(rates) < 1e-10

    def test_markov_step_sound(self):
        m, n, p, mu = sum_params(n=200)
        k, delta, reps = 10, 0.5, 20_000
        sums = rig_degree_sample(m, n, p, rng(23), size=(reps, k)).sum(axis=1)
        emp = float((sums <= (1 - delta) * mu * k).mean())
        se = math.sqrt(max(emp * (1 - emp), 1e-12) / reps)
        for s in (0.1, 0.3, 0.5, 1.0):
            f = math.exp(s * (1 - delta) * mu) * rig_gf(m, n, p, math.exp(-s))
            assert emp <= min(f, 1.0) ** k + 3 * se

    def test_bound_dominates_empirical(self):
        m, n, p, mu = sum_params(n=200)
        k, delta, reps = 50, 0.5, 20_000
        tb = chernoff_lower(m, n, p, mu, k, delta)
        sums = rig_degree_sample(m, n, p, rng(24), size=(reps, k)).sum(axis=1)
        emp = float((sums <= (1 - delta) * mu * k).mean())
        se = math.sqrt(max(emp * (1 - emp), 1e-12) / reps)
        assert emp <= tb.bound + 3 * se


class TestFixedPointVsMonteCarlo:
    @pytest.mark.parametrize("beta,gamma", [(1.0, 2.0), (2.0, 1.0), (0.5, 3.0)])
    def test_agreement(self, beta, gamma):
        rho = solve_extinction(beta, gamma).rho
        off = CompoundPoissonOffspring(CompoundPoissonSpec(beta * gamma, gamma))
        est, se = extinction_mc(off, 20_000, 50_000, rng(int(beta * 10 + gamma)))
        assert abs(est - rho) < 3 * se
