import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from riglab.degree import (CompoundPoissonSpec, cpoisson_gf, cpoisson_sample,
                           rig_degree_sample, rig_gf, rimg_log_gf)
from riglab.model import derive_params
from riglab.theory import (S_MAX, CompoundPoissonOffspring, RigDegreeOffspring,
                           _grid_golden_min, branching_total, chernoff_lower,
                           chernoff_upper, extinction_mc, solve_extinction)

import oracle


def rng(seed=0):
    return np.random.default_rng(seed)


def limit_gf(beta, gamma, s):
    """Generating function of the limiting degree law CPoisson(beta*gamma, gamma)."""
    return cpoisson_gf(CompoundPoissonSpec(beta * gamma, gamma), s)


class ConstantOffspring:
    """Deterministic offspring count."""

    def __init__(self, value: int):
        self.value = int(value)

    def total_children(self, rng, pop: int) -> int:
        return self.value * pop


# ---------------------------------------------------------------------------
# limiting generating function and its fixed point
# ---------------------------------------------------------------------------

class TestLimitGf:
    def test_normalization(self):
        assert limit_gf(1.0, 2.0, 1.0) == 1.0

    def test_hand_value(self):
        assert limit_gf(1.0, 1.0, 0.0) == \
            pytest.approx(0.5314636053866156, abs=1e-15)

    def test_increasing_and_convex(self):
        s = np.linspace(0.0, 1.0, 100)
        vals = np.array([limit_gf(1.0, 2.0, t) for t in s])
        assert (np.diff(vals) > 0).all()
        assert (np.diff(vals, 2) > -1e-12).all()


class TestSolveExtinction:
    def test_subcritical_is_one(self):
        r = solve_extinction(1.0, 0.9)
        assert r.rho == 1.0
        assert r.regime == "subcritical"
        assert r.residual <= 1e-12
        assert r.bracket == (1.0, 1.0) and r.error_bound == 0.0

    def test_supercritical_value(self):
        r = solve_extinction(1.0, 2.0)
        assert r.regime == "supercritical"
        assert r.converged
        assert r.residual <= 1e-12
        assert r.rho == pytest.approx(0.20318786997997, abs=1e-9)

    def test_vs_independent_root_finder(self):
        for beta, gamma in [(1.0, 2.0), (2.0, 1.0), (0.5, 3.0), (1.0, 1.5)]:
            r = solve_extinction(beta, gamma)
            ref = brentq(lambda t: limit_gf(beta, gamma, t) - t,
                         0.0, 1.0 - 1e-9, xtol=1e-14)
            assert r.rho == pytest.approx(ref, abs=1e-9)

    def test_critical(self):
        # at the second point beta * gamma ** 2 is exactly 1, and
        # (beta * gamma) * gamma is not
        for beta, gamma in ((4.0, 0.5), (0.4720737768284195, 1.4554425309821815)):
            r = solve_extinction(beta, gamma)
            assert r.mu == 1.0
            assert r.regime == "critical"
            assert r.rho == 1.0

    def test_mu_is_the_derived_mu(self):
        # beta = 1/gamma^2: the two products of three factors differ in
        # about a third of these points, and mu must follow derive_params
        g = np.random.default_rng(20261020)
        gammas = 10.0 ** g.uniform(-3.0, 3.0, 10_000)
        betas = 1.0 / gammas ** 2
        assert np.count_nonzero(betas * gammas * gammas != betas * gammas ** 2) > 2000
        for beta, gamma in zip(betas.tolist(), gammas.tolist()):
            assert solve_extinction(beta, gamma).mu == derive_params(10 ** 6, beta, gamma).mu

    @pytest.mark.parametrize("beta,gamma", [(1.0, math.nan), (math.nan, 1.0),
                                            (math.inf, 1.0), (1.0, -math.inf)])
    def test_rejects_non_finite(self, beta, gamma):
        with pytest.raises(ValueError, match="finite"):
            solve_extinction(beta, gamma)

    def test_degenerate_offspring(self):
        r = solve_extinction(0.0, 3.0)
        assert r.rho == 1.0 and r.regime == "subcritical"

    def test_rho_is_smallest_root(self):
        r = solve_extinction(1.0, 2.0)
        xs = np.linspace(0.0, r.rho * (1 - 1e-9), 1000)
        assert all(limit_gf(1.0, 2.0, x) > x for x in xs)

    @pytest.mark.parametrize("gamma", [1.0, 0.5, 2.0])
    @pytest.mark.parametrize("mu", [1.0 + 1e-4, 1.0 + 1e-3, 1.01])
    def test_near_critical_vs_brentq(self, mu, gamma):
        beta = mu / gamma ** 2
        r = solve_extinction(beta, gamma)
        ref = brentq(lambda t: limit_gf(beta, gamma, t) - t,
                     0.0, 1.0 - 1e-9, xtol=1e-15)
        assert r.rho < 1.0 and r.converged
        assert r.rho == pytest.approx(ref, abs=1e-11)

    @pytest.mark.parametrize("gamma", [1.0, 0.5, 2.0])
    @pytest.mark.parametrize("mu", [1.0 + 1e-4, 1.0 + 1e-3, 1.01])
    def test_near_critical_expansion(self, mu, gamma):
        # 1 - rho = 2(mu - 1)/g''(1) + O((mu - 1)^2), g''(1) = mu(gamma + mu)
        r = solve_extinction(mu / gamma ** 2, gamma)
        approx = 2.0 * (mu - 1.0) / (mu * (gamma + mu))
        assert (1.0 - r.rho) / approx == pytest.approx(1.0, abs=2.0 * (mu - 1.0))

    @pytest.mark.parametrize("beta,gamma", [
        (1.0 + 1e-4, 1.0), (1.001, 1.0), (1.01, 1.0), (1.0, 2.0), (2.0, 1.0),
        (0.5, 3.0), (3.0, 2.5), (30.0, 1.0), (1.0 + 1e-12, 1.0),
        (1.0000000000000002, 1.0)])
    def test_error_bound_bounds_error(self, beta, gamma):
        # reference: the survival probability y = 1 - rho solves
        # y + expm1(beta gamma expm1(-gamma y)) = 0, found at 60 digits
        mpmath = pytest.importorskip("mpmath")
        r = solve_extinction(beta, gamma)
        lo, hi = r.bracket
        assert lo <= r.rho <= hi and r.rho < 1.0
        with mpmath.workdps(60):
            l1, l2 = mpmath.mpf(beta) * gamma, mpmath.mpf(gamma)

            def h(x):
                return mpmath.exp(l1 * mpmath.expm1(l2 * (x - 1))) - x

            assert h(mpmath.mpf(lo)) > 0 >= h(mpmath.mpf(hi))
            mu = beta * gamma ** 2
            y0 = 2 * (mu - 1) / (mu * (gamma + mu)) if mu < 1.5 else mpmath.mpf(1)
            y = mpmath.findroot(lambda t: t + mpmath.expm1(l1 * mpmath.expm1(-l2 * t)), y0)
            err = abs(mpmath.mpf(r.rho) - (1 - y))
        assert 0 < y < 1
        assert err <= r.error_bound <= 1e-13

    # mu = 10 with beta*gamma from 1e-8 down to 1e-160, where beta = 1e-321 is
    # subnormal; below about 2e-162 no double beta gives mu > 1.  From 1e-17
    # on the root 1 - y, y ~ beta*gamma, rounds to 1 and Newton's first step
    # reaches it, so the iterate must stop at 1 - 2^-53, not fall back to 0.
    @pytest.mark.parametrize("bg", [1e-8, 1e-12, 1e-16, 1e-17, 1e-18, 1e-20,
                                    1e-40, 1e-100, 1e-140, 1e-160])
    def test_root_within_an_ulp_of_one(self, bg):
        mpmath = pytest.importorskip("mpmath")
        gamma = 10.0 / bg
        r = solve_extinction(bg / gamma, gamma)
        assert r.mu > 9.9 and r.rho < 1.0
        assert r.converged and r.error_bound <= 2.3e-16
        with mpmath.workdps(400):
            l1, l2 = mpmath.mpf(bg / gamma) * gamma, mpmath.mpf(gamma)
            y = mpmath.findroot(lambda t: t + mpmath.expm1(l1 * mpmath.expm1(-l2 * t)), l1)
            assert abs(mpmath.mpf(r.rho) - (1 - y)) <= r.error_bound

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
        # pooled-generation shortcut must match the sum of single draws
        off = CompoundPoissonOffspring(CompoundPoissonSpec(1.0, 2.0))
        a = np.array([off.total_children(rng(100 + i), 7) for i in range(4000)])
        b = np.array([cpoisson_sample(off.spec, rng(10_000 + i), size=7).sum()
                      for i in range(4000)])
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


@pytest.mark.parametrize("bound", [chernoff_upper, chernoff_lower])
@pytest.mark.parametrize("mu,delta", [(1.0, math.nan), (1.0, math.inf),
                                      (math.nan, 0.5), (math.inf, 0.5)])
def test_chernoff_rejects_non_finite(bound, mu, delta):
    m, n, p, _ = sum_params()
    with pytest.raises(ValueError, match=r"finite|\(0,1\)"):
        bound(m, n, p, mu, 10, delta)


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

    def test_matches_reference_gf_at_large_mean(self):
        # the optimum sits where the gf's rows of weight under 1e-20 dominate
        params = derive_params(10 ** 4, 1.0, 50.0)
        m, n, p, mu = params.m, params.n, params.p, params.mu
        tb = chernoff_lower(m, n, p, mu, 200, 0.9)
        _, val = _grid_golden_min(lambda s: s * 0.1 * mu + math.log(
            oracle.degree_gf_by_marks(m, n, p, math.exp(-s))), 1e-9, S_MAX)
        assert tb.log_bound == pytest.approx(200 * val, rel=1e-9)

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
