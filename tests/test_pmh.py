"""Random-walk proposals, acceptance ratio, chains and diagnostics."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from rieszmc import (
    IndependentPrior,
    LgssParams,
    LgssPhiFamily,
    PmhConfig,
    RieszParams,
    RieszProposalSet,
    SamplerConfig,
    TruncatedGaussianPrior,
    acf,
    kalman_filter,
    lgss_simulate,
    pmh_run,
    posterior_summary,
    run_filter,
)
from rieszmc.errors import AllWeightsZero, NumericalError
from rieszmc.pmh import ChainOutput


class _BrokenAboveFamily(LgssPhiFamily):
    """LGSS family whose observation log-density is ``fill`` (-inf: every
    weight dies, NaN: a broken model) for phi above ``edge``."""

    def __init__(self, fill, edge=0.8):
        super().__init__(1.0, 0.1, 0.0)
        self.fill, self.edge = fill, edge

    def make_model(self, theta):
        model = super().make_model(theta)
        if float(np.atleast_1d(theta)[0]) > self.edge:
            model.observation_logpdf = (
                lambda y, x: np.full(np.shape(x), self.fill))
        return model


class _FlatPrior:
    def log_prior(self, theta):
        return 0.0


def _recording_chain(loglik, prior, steps, theta0, iterations, seed):
    """A pmh_run chain on ``loglik(theta)`` with every likelihood call
    recorded: calls[0] is theta0 and calls[j] the j-th proposal that
    reached the likelihood."""
    calls = []

    def loglik_fn(theta, rng):
        calls.append(theta.copy())
        return loglik(theta)

    cfg = PmhConfig(iterations=iterations, burn_in=0, step_sizes=steps,
                    n_particles=1, n_riesz=2, seed=seed)
    chain = pmh_run(None, np.zeros(1), prior, cfg, theta0=theta0,
                    loglik_fn=loglik_fn)
    return chain, np.array(calls)


class TestProposeTheta:
    """The chain's Gaussian random-walk proposal, seen through pmh_run on a
    flat target, where every proposal is accepted."""

    def test_zero_step_returns_theta(self):
        # a zero step holds its coordinate while the other one moves
        chain, _ = _recording_chain(lambda theta: 0.0, _FlatPrior(),
                                    [0.0, 0.5], [0.4, -1.2], 200, 0)
        assert np.all(chain.samples[:, 0] == 0.4)
        assert np.unique(chain.samples[:, 1]).size == 200

    def test_step_moment(self):
        chain, _ = _recording_chain(lambda theta: 0.0, _FlatPrior(),
                                    [0.1, 0.3], [0.0, 0.0], 100_000, 1)
        assert chain.accepted.all()
        steps = np.diff(chain.samples, axis=0)
        assert steps[:, 0].std() == pytest.approx(0.1, rel=0.01)
        assert steps[:, 1].std() == pytest.approx(0.3, rel=0.01)
        assert abs(steps.mean()) < 0.005

    def test_shape_mismatch(self):
        cfg = PmhConfig(iterations=5, burn_in=0, step_sizes=np.zeros(3),
                        n_particles=1, n_riesz=2, seed=2)
        calls = []
        with pytest.raises(ValueError, match="step_sizes shape"):
            pmh_run(None, np.zeros(1), _FlatPrior(), cfg, theta0=np.zeros(2),
                    loglik_fn=lambda theta, rng: calls.append(theta))
        assert calls == []  # refused before any likelihood evaluation


class TestAcceptanceLogRatio:
    """Acceptance by log p-hat + log prior, seen through pmh_run."""

    def test_identity_is_zero(self):
        # equal likelihood and prior give a log ratio of 0: always accepted
        chain, calls = _recording_chain(lambda theta: -10.0, _FlatPrior(),
                                        [0.2], [0.5], 500, 3)
        assert chain.acceptance_rate == 1.0
        assert np.array_equal(chain.samples, calls[1:])
        assert np.all(chain.log_liks == -10.0)

    def test_uphill_move_is_certain(self):
        # every proposal reaches the likelihood (flat prior), so calls[it + 1]
        # is the proposal of iteration it
        chain, calls = _recording_chain(lambda theta: -8.0 * theta[0] ** 2,
                                        _FlatPrior(), [1.0], [2.0], 2000, 4)
        current = np.concatenate(([2.0], chain.samples[:-1, 0]))
        uphill = np.abs(calls[1:, 0]) <= np.abs(current)
        assert uphill.any() and not uphill.all()
        assert chain.accepted[uphill].all()
        assert not chain.accepted[~uphill].all()
        assert np.array_equal(chain.samples[chain.accepted, 0],
                              calls[1:, 0][chain.accepted])
        assert np.array_equal(chain.log_liks, -8.0 * chain.samples[:, 0] ** 2)

    def test_invalid_prior_forces_rejection(self):
        # the likelihood climbs towards phi = 1 and beyond; the prior's
        # support (-1, 1) still rejects every proposal past it, without a
        # likelihood evaluation
        chain, calls = _recording_chain(lambda theta: 50.0 * theta[0],
                                        LgssPhiFamily.default_prior(),
                                        [0.05], [0.5], 1000, 5)
        assert np.all(np.abs(calls[:, 0]) < 1.0)
        assert np.all(chain.samples < 1.0)
        assert chain.samples.max() > 0.95
        skipped = 1000 - (len(calls) - 1)
        assert skipped > 0
        assert (~chain.accepted).sum() >= skipped

    def test_exact_gaussian_target_chain_moments(self):
        # MH with an exact "likelihood" N(3, 0.7^2) and a flat prior must
        # reproduce that target's moments
        target_mean, target_std = 3.0, 0.7

        def loglik(theta, rng):
            return float(norm.logpdf(theta[0], target_mean, target_std))

        cfg = PmhConfig(iterations=100_000, burn_in=5_000,
                        step_sizes=[1.5], n_particles=1, n_riesz=2, seed=3)
        chain = pmh_run(None, np.zeros(1), _FlatPrior(), cfg,
                        theta0=[0.0], loglik_fn=loglik)
        kept = chain.samples[cfg.burn_in:, 0]
        # batch-means standard error accounts for autocorrelation
        batches = kept.reshape(50, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(len(batches))
        assert abs(kept.mean() - target_mean) < 3 * se
        assert kept.var() == pytest.approx(target_std ** 2, rel=0.1)


class TestPmhRun:
    PAPER = LgssParams(phi=0.75, sigma_v=1.0, sigma_o=0.1)

    def test_zero_step_never_moves_and_accepts(self):
        traj = lgss_simulate(self.PAPER, 10, 0.0, np.random.default_rng(4))
        family = LgssPhiFamily(1.0, 0.1, 0.0)
        cfg = PmhConfig(iterations=40, burn_in=10, step_sizes=[0.0],
                        n_particles=20, n_riesz=10, seed=5)
        chain = pmh_run(family, traj.observations,
                        LgssPhiFamily.default_prior(), cfg, theta0=[0.75])
        assert chain.acceptance_rate == 1.0
        assert np.all(chain.samples == 0.75)

    def test_rejection_preserves_likelihood_estimate(self):
        traj = lgss_simulate(self.PAPER, 30, 0.0, np.random.default_rng(6))
        family = LgssPhiFamily(1.0, 0.1, 0.0)
        cfg = PmhConfig(iterations=150, burn_in=10, step_sizes=[0.4],
                        n_particles=30, n_riesz=10, seed=7)
        chain = pmh_run(family, traj.observations,
                        LgssPhiFamily.default_prior(), cfg, theta0=[0.75])
        assert 0.0 < chain.acceptance_rate < 1.0
        for it in range(1, cfg.iterations):
            if not chain.accepted[it]:
                assert chain.log_liks[it] == chain.log_liks[it - 1]
                assert np.array_equal(chain.samples[it],
                                      chain.samples[it - 1])

    def test_acceptance_rate_consistent_with_flags(self):
        traj = lgss_simulate(self.PAPER, 20, 0.0, np.random.default_rng(8))
        family = LgssPhiFamily(1.0, 0.1, 0.0)
        cfg = PmhConfig(iterations=100, burn_in=10, step_sizes=[0.2],
                        n_particles=20, n_riesz=10, seed=9)
        chain = pmh_run(family, traj.observations,
                        LgssPhiFamily.default_prior(), cfg, theta0=[0.75])
        assert chain.acceptance_rate == pytest.approx(chain.accepted.mean())

    def test_proposal_set_must_match_n_riesz(self):
        pset = RieszProposalSet.standard_normal(
            12, RieszParams(), SamplerConfig(n_points=12))
        cfg = PmhConfig(iterations=5, burn_in=1, step_sizes=[0.1],
                        n_particles=10, n_riesz=10)
        with pytest.raises(ValueError, match="n_riesz"):
            pmh_run(LgssPhiFamily(), np.zeros(3),
                    LgssPhiFamily.default_prior(), cfg, theta0=[0.5],
                    proposal_set=pset)

    def test_determinism(self):
        traj = lgss_simulate(self.PAPER, 15, 0.0, np.random.default_rng(10))
        family = LgssPhiFamily(1.0, 0.1, 0.0)
        cfg = PmhConfig(iterations=60, burn_in=10, step_sizes=[0.2],
                        n_particles=20, n_riesz=10, seed=11)
        a = pmh_run(family, traj.observations,
                    LgssPhiFamily.default_prior(), cfg, theta0=[0.75])
        b = pmh_run(family, traj.observations,
                    LgssPhiFamily.default_prior(), cfg, theta0=[0.75])
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.accepted, b.accepted)
        assert np.array_equal(a.log_liks, b.log_liks)

    def test_dead_proposal_is_rejected_in_step(self):
        # p-hat = 0 (every weight -inf) at a proposal rejects it; the
        # acceptance uniform is still drawn, so the chain equals one whose
        # likelihood reads -inf there
        traj = lgss_simulate(self.PAPER, 15, 0.0, np.random.default_rng(14))
        family = _BrokenAboveFamily(-np.inf)
        prior = LgssPhiFamily.default_prior()
        pset = RieszProposalSet.standard_normal(
            10, RieszParams(), SamplerConfig(n_points=10, seed=3))
        cfg = PmhConfig(iterations=80, burn_in=10, step_sizes=[0.15],
                        n_particles=20, n_riesz=10, seed=15)
        chain = pmh_run(family, traj.observations, prior, cfg,
                        theta0=[0.75], proposal_set=pset)

        dead = []

        def dead_ll(theta, rng):
            if theta[0] > family.edge:
                dead.append(theta[0])
                return -np.inf
            return run_filter(family.make_model(theta), traj.observations,
                              20, 10, None, None, rng,
                              proposal_set=pset).log_likelihood

        want = pmh_run(family, traj.observations, prior, cfg, theta0=[0.75],
                       loglik_fn=dead_ll)
        assert np.array_equal(chain.samples, want.samples)
        assert np.array_equal(chain.accepted, want.accepted)
        assert np.array_equal(chain.log_liks, want.log_liks)
        assert np.all(chain.samples <= family.edge)
        assert np.all(np.isfinite(chain.log_liks))
        assert 0.0 < chain.acceptance_rate < 1.0
        assert len(dead) >= 3
        with pytest.raises(AllWeightsZero):
            run_filter(family.make_model(dead[:1]), traj.observations, 20,
                       10, None, None, np.random.default_rng(0),
                       proposal_set=pset)

    def test_dead_start_raises(self):
        cfg = PmhConfig(iterations=5, burn_in=1, step_sizes=[0.1],
                        n_particles=10, n_riesz=10)
        with pytest.raises(AllWeightsZero):
            pmh_run(_BrokenAboveFamily(-np.inf), np.zeros(3),
                    LgssPhiFamily.default_prior(), cfg, theta0=[0.9])

    def test_nan_weight_raises(self):
        traj = lgss_simulate(self.PAPER, 10, 0.0, np.random.default_rng(16))
        cfg = PmhConfig(iterations=200, burn_in=10, step_sizes=[0.3],
                        n_particles=10, n_riesz=10, seed=17)
        with pytest.raises(NumericalError, match="nan") as exc:
            pmh_run(_BrokenAboveFamily(np.nan), traj.observations,
                    LgssPhiFamily.default_prior(), cfg, theta0=[0.75])
        assert not isinstance(exc.value, AllWeightsZero)

    def test_matches_exact_likelihood_chain(self):
        # substituting the exact Kalman likelihood must give the same
        # posterior up to Monte Carlo error (pseudo-marginal correctness)
        traj = lgss_simulate(self.PAPER, 40, 0.0, np.random.default_rng(12))
        family = LgssPhiFamily(1.0, 0.1, 0.0)
        prior = LgssPhiFamily.default_prior()
        cfg = PmhConfig(iterations=1500, burn_in=300, step_sizes=[0.12],
                        n_particles=100, n_riesz=50, seed=13)

        def kalman_ll(theta, rng):
            p = LgssParams(float(theta[0]), 1.0, 0.1)
            return kalman_filter(p, traj.observations, 0.0,
                                 0.0).log_likelihood

        pm = pmh_run(family, traj.observations, prior, cfg, theta0=[0.75])
        exact = pmh_run(family, traj.observations, prior, cfg,
                        theta0=[0.75], loglik_fn=kalman_ll)
        m_pm, _ = posterior_summary(pm, cfg.burn_in)
        m_ex, _ = posterior_summary(exact, cfg.burn_in)

        def batch_se(chain):
            kept = chain.samples[cfg.burn_in:, 0]
            batches = kept.reshape(30, -1).mean(axis=1)
            return batches.std(ddof=1) / math.sqrt(len(batches))

        tol = 2 * math.hypot(batch_se(pm), batch_se(exact))
        assert abs(m_pm[0] - m_ex[0]) < tol


class TestAcf:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(14)
        assert acf(rng.standard_normal(100), 5)[0] == 1.0

    def test_white_noise_band(self):
        rng = np.random.default_rng(15)
        a = acf(rng.standard_normal(100_000), 20)
        assert np.all(np.abs(a[1:]) < 0.02)

    def test_ar1_analytic_decay(self):
        rng = np.random.default_rng(16)
        n = 100_000
        x = np.empty(n)
        x[0] = 0.0
        eps = rng.standard_normal(n)
        for t in range(1, n):
            x[t] = 0.9 * x[t - 1] + eps[t]
        a = acf(x, 10)
        assert np.allclose(a, 0.9 ** np.arange(11), atol=0.05)

    def test_series_too_short(self):
        with pytest.raises(ValueError,
                           match="series length 5 must exceed max_lag 5"):
            acf(np.zeros(5), 5)

    def test_constant_series(self):
        a = acf(np.full(50, 2.5), 3)
        assert a[0] == 1.0 and np.all(a[1:] == 0.0)


class TestPosteriorSummary:
    def test_constant_chain(self):
        chain = ChainOutput(np.full((20, 1), 0.3), np.ones(20, bool), 1.0)
        mean, var = posterior_summary(chain, 5)
        assert mean[0] == pytest.approx(0.3)
        assert var[0] == pytest.approx(0.0, abs=1e-30)

    def test_alternating_chain_population_variance(self):
        samples = np.array([1.0, -1.0] * 10)[:, None]
        chain = ChainOutput(samples, np.ones(20, bool), 1.0)
        mean, var = posterior_summary(chain, 0)
        assert mean[0] == pytest.approx(0.0)
        assert var[0] == pytest.approx(1.0)

    def test_burn_in_too_large(self):
        chain = ChainOutput(np.zeros((10, 1)), np.ones(10, bool), 1.0)
        with pytest.raises(ValueError,
                           match="burn_in 10 leaves no samples out of 10"):
            posterior_summary(chain, 10)


class TestPriors:
    def test_gaussian_prior_matches_scipy(self):
        # without bounds the mass is exactly 1, so the log-density is the
        # plain normal's, bit for bit
        prior = TruncatedGaussianPrior(0.3, 1.7)
        assert prior.logpdf(-0.4) == pytest.approx(
            float(norm.logpdf(-0.4, 0.3, 1.7)), rel=1e-12)
        for v in np.linspace(-40.0, 40.0, 801):
            z = (v - 0.3) / 1.7
            assert prior.logpdf(v) == (-0.5 * (math.log(2.0 * math.pi)
                                               + z * z) - math.log(1.7))

    def test_truncated_prior_normalizes(self):
        prior = TruncatedGaussianPrior(0.75, 0.5, -1.0, 1.0)
        grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 200_001)
        mass = np.exp([prior.logpdf(v) for v in grid]).sum() * (grid[1]
                                                                - grid[0])
        assert mass == pytest.approx(1.0, abs=1e-4)
        assert prior.logpdf(1.2) == -np.inf

    def test_independent_prior_sums_components(self):
        prior = IndependentPrior((TruncatedGaussianPrior(0.0, 1.0),
                                  TruncatedGaussianPrior(0.0, 1.0, 0.0,
                                                         np.inf)))
        got = prior.log_prior(np.array([0.5, 0.5]))
        want = (TruncatedGaussianPrior(0.0, 1.0).logpdf(0.5)
                + TruncatedGaussianPrior(0.0, 1.0, 0.0, np.inf).logpdf(0.5))
        assert got == pytest.approx(want, rel=1e-12)
        assert prior.log_prior(np.array([0.5, -0.5])) == -np.inf

    @pytest.mark.parametrize("std", [0.0, -0.5, float("nan")])
    def test_nonpositive_std_is_rejected(self, std):
        with pytest.raises(ValueError, match="std must be positive"):
            TruncatedGaussianPrior(0.0, std)
