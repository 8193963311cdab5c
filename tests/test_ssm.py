"""Model densities, simulators and the Kalman oracle."""

import math

import mpmath as mp
import numpy as np
import pytest

from rieszmc import (
    KalmanOutput,
    LgssParams,
    SvParams,
    Trajectory,
    kalman_filter,
    lgss_observation_logpdf,
    lgss_optimal_proposal,
    lgss_simulate,
    lgss_transition_logpdf,
    sv_observation_logpdf,
    sv_prior_logpdf,
    sv_simulate,
    sv_transition_logpdf,
)

PAPER = LgssParams(phi=0.75, sigma_v=1.0, sigma_o=0.1)


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        dict(phi=1.0, sigma_v=1.0, sigma_o=1.0),
        dict(phi=-1.0, sigma_v=1.0, sigma_o=1.0),
        dict(phi=0.5, sigma_v=0.0, sigma_o=1.0),
        dict(phi=0.5, sigma_v=1.0, sigma_o=-1.0),
    ])
    def test_lgss_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LgssParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(mu=0.0, rho=1.0, sigma_v=0.2),
        dict(mu=0.0, rho=0.9, sigma_v=0.0),
        dict(mu=0.0, rho=0.9, sigma_v=0.2, tau=0.0),
    ])
    def test_sv_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SvParams(**kwargs)

    def test_trajectory_length_contract(self):
        with pytest.raises(ValueError, match="observations must have length"):
            Trajectory(np.zeros(5), np.zeros(5))


class TestLgssSimulate:
    def test_noise_free_recursion(self):
        p = LgssParams(phi=0.5, sigma_v=1e-300, sigma_o=1e-300)
        traj = lgss_simulate(p, 3, 1.0, np.random.default_rng(0))
        assert np.allclose(traj.states, [1.0, 0.5, 0.25, 0.125], atol=1e-12)
        assert np.allclose(traj.observations, traj.states[1:], atol=1e-12)

    def test_iid_observation_variance(self):
        # phi = 0 and vanishing obs noise: y_t iid N(0, sigma_v^2)
        p = LgssParams(phi=1e-12, sigma_v=1.3, sigma_o=1e-9)
        traj = lgss_simulate(p, 100_000, 0.0, np.random.default_rng(1))
        assert traj.observations.var() == pytest.approx(1.3 ** 2, rel=0.02)

    def test_paper_setting_shapes(self):
        traj = lgss_simulate(PAPER, 250, 0.0, np.random.default_rng(2))
        assert traj.states.shape == (251,)
        assert traj.observations.shape == (250,)
        assert traj.states[0] == 0.0

    def test_deterministic_given_seed(self):
        a = lgss_simulate(PAPER, 50, 0.0, np.random.default_rng(3))
        b = lgss_simulate(PAPER, 50, 0.0, np.random.default_rng(3))
        assert np.array_equal(a.observations, b.observations)


class TestOptimalProposal:
    def test_equal_precisions_average(self):
        p = LgssParams(phi=0.999999999999, sigma_v=1.0, sigma_o=1.0)
        mean, var = lgss_optimal_proposal(0.0, 2.0, p)
        assert var == pytest.approx(0.5)
        assert mean == pytest.approx(1.0)

    def test_observation_dominates(self):
        p = LgssParams(phi=0.9, sigma_v=1.0, sigma_o=1e-6)
        mean, _ = lgss_optimal_proposal(0.3, 1.7, p)
        assert mean == pytest.approx(1.7, abs=1e-9)

    def test_paper_parameter_variance(self):
        _, var = lgss_optimal_proposal(0.0, 0.0, PAPER)
        assert var == pytest.approx(1.0 / 101.0, rel=1e-12)

    def test_is_the_grid_normalized_posterior(self):
        # f(x|x_prev) g(y|x) normalized on a fine grid has the same mean
        # and variance as the closed form
        x_prev, y = 0.4, 1.1
        mean, var = lgss_optimal_proposal(x_prev, y, PAPER)
        grid = np.linspace(mean - 8 * math.sqrt(var),
                           mean + 8 * math.sqrt(var), 10_000)
        log_post = (lgss_transition_logpdf(grid, x_prev, PAPER)
                    + lgss_observation_logpdf(y, grid, PAPER))
        w = np.exp(log_post - log_post.max())
        w /= w.sum()
        assert float(w @ grid) == pytest.approx(mean, abs=1e-8)
        assert float(w @ (grid - mean) ** 2) == pytest.approx(var, rel=1e-4)


class TestKalmanFilter:
    def test_degenerate_dynamics_follow_recursion(self):
        p = LgssParams(phi=0.8, sigma_v=1e-300, sigma_o=1.0)
        y = np.zeros(5)
        out = kalman_filter(p, y, 2.0, 0.0)
        want = 2.0 * 0.8 ** np.arange(1, 6)
        assert np.allclose(out.filtered_means, want, atol=1e-10)

    def test_one_step_conjugate_update(self):
        # x0 ~ N(0,1), phi -> 1, sigma_v -> 0, sigma_o = 1, y = 1
        p = LgssParams(phi=1 - 1e-13, sigma_v=1e-300, sigma_o=1.0)
        out = kalman_filter(p, [1.0], 0.0, 1.0)
        assert out.filtered_means[0] == pytest.approx(0.5, abs=1e-9)
        assert out.filtered_variances[0] == pytest.approx(0.5, abs=1e-9)
        want_ll = -0.5 * (math.log(2 * math.pi * 2.0) + 1.0 / 2.0)
        assert out.log_likelihood == pytest.approx(want_ll, abs=1e-9)

    def test_matches_extended_precision_recursion(self):
        traj = lgss_simulate(PAPER, 250, 0.0, np.random.default_rng(8))
        out = kalman_filter(PAPER, traj.observations, 0.0, 0.0)
        with mp.workdps(50):
            phi, var_v, var_o = (mp.mpf(PAPER.phi), mp.mpf(1.0),
                                 mp.mpf("0.01"))
            m, P = mp.mpf(0), mp.mpf(0)
            ll = mp.mpf(0)
            for y in traj.observations:
                y = mp.mpf(y)
                m_pred = phi * m
                P_pred = phi ** 2 * P + var_v
                S = P_pred + var_o
                ll += -mp.mpf("0.5") * (mp.log(2 * mp.pi) + mp.log(S)
                                        + (y - m_pred) ** 2 / S)
                K = P_pred / S
                m = m_pred + K * (y - m_pred)
                P = (1 - K) * P_pred
            want = float(ll)
        assert out.log_likelihood == pytest.approx(want, abs=1e-8)

    def test_output_invariants(self):
        traj = lgss_simulate(PAPER, 60, 0.0, np.random.default_rng(9))
        out = kalman_filter(PAPER, traj.observations, 0.0, 0.0)
        assert isinstance(out, KalmanOutput)
        assert out.filtered_means.shape == (60,)
        assert np.all(out.filtered_variances > 0)


class TestSvDensities:
    def test_zero_persistence(self):
        p = SvParams(mu=0.7, rho=1e-14, sigma_v=0.3)
        assert p.stationary_variance == pytest.approx(0.09, rel=1e-12)
        # transition mean is mu regardless of x_prev
        a = sv_transition_logpdf(0.7, -3.0, p)
        b = sv_transition_logpdf(0.7, 5.0, p)
        assert a == pytest.approx(b, rel=1e-9)

    def test_standard_normal_observation(self):
        p = SvParams(mu=0.0, rho=0.5, sigma_v=0.2, tau=1.0)
        got = sv_observation_logpdf(0.0, 0.0, p)
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-12)
        # exp(x) tau is the observation variance, not its std
        p = SvParams(mu=0.0, rho=0.5, sigma_v=0.2, tau=2.0)
        assert p.obs_variance(0.4) == pytest.approx(math.exp(0.4) * 2.0)

    @pytest.mark.parametrize("y", [0.0, 1.3, -40.0])
    def test_observation_matches_extended_precision(self, y):
        p = SvParams(mu=0.0, rho=0.5, sigma_v=0.2, tau=2.0)
        x = np.array([-800.0, -30.0, -1.0, 0.0, 2.5, 30.0, 800.0])
        got = sv_observation_logpdf(y, x, p)
        with mp.workdps(50):
            for xi, gi in zip(x, got):
                want = -(mp.log(2 * mp.pi) + mp.log(p.tau) + xi
                         + mp.mpf(y) ** 2 / p.tau * mp.exp(-xi)) / 2
                if want < -1e300:
                    # (y^2 / tau) e^{800}: the density underflows to 0
                    assert gi == -math.inf
                else:
                    assert gi == pytest.approx(float(want), rel=1e-14)

    def test_observation_at_extreme_states(self):
        # x = 800 was -inf and x = -800 NaN when the variance e^x tau was
        # formed first; y = 0 drops the (y^2 / tau) e^{-x} term
        p = SvParams(mu=0.0, rho=0.5, sigma_v=0.2)
        c = 0.5 * math.log(2 * math.pi)
        x = np.array([800.0, -800.0])
        assert np.allclose(sv_observation_logpdf(0.0, x, p), -c - x / 2,
                           rtol=1e-15)
        got = sv_observation_logpdf(1.5, x, p)
        assert got[0] == pytest.approx(-c - 400.0, rel=1e-15)
        assert got[1] == -math.inf
        # an array of observations, one of them 0, at x = -800
        got = sv_observation_logpdf(np.array([0.0, 1.5]), -800.0, p)
        assert got[0] == pytest.approx(-c + 400.0, rel=1e-15)
        assert got[1] == -math.inf

    def test_logpdfs_integrate_to_one(self):
        p = SvParams(mu=0.3, rho=0.9, sigma_v=0.4, tau=2.0)
        grid = np.linspace(-12, 12, 20_001)
        dx = grid[1] - grid[0]
        for logpdf in (lambda x: sv_prior_logpdf(x, p),
                       lambda x: sv_transition_logpdf(x, 0.5, p),
                       lambda x: sv_observation_logpdf(x, 0.2, p)):
            mass = np.exp(logpdf(grid)).sum() * dx
            assert mass == pytest.approx(1.0, abs=1e-4)


class TestSvSimulate:
    def test_deterministic_given_seed(self):
        p = SvParams(mu=0.5, rho=0.95, sigma_v=0.2)
        a = sv_simulate(p, 100, np.random.default_rng(5))
        b = sv_simulate(p, 100, np.random.default_rng(5))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.observations, b.observations)

    def test_squared_observation_moment(self):
        # E[y^2] = E[exp(x)] tau = exp(mu + stationary_var / 2) tau
        p = SvParams(mu=0.2, rho=0.8, sigma_v=0.3, tau=1.5)
        traj = sv_simulate(p, 100_000, np.random.default_rng(6))
        want = math.exp(p.mu + p.stationary_variance / 2.0) * p.tau
        got = (traj.observations ** 2).mean()
        # y^2 is heavy tailed; allow 3 standard errors of the sample mean
        se = (traj.observations ** 2).std() / math.sqrt(100_000)
        assert abs(got - want) < 3 * se
