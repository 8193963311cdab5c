"""Resampling, proposal sets, weighting and the full filter."""

import hashlib
import math

import hypothesis.strategies as st
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import logsumexp
from scipy.stats import chi2, norm

from rieszmc import (
    LgssFilterModel,
    LgssParams,
    PointConfiguration,
    ProposalSpec,
    RieszParams,
    RieszProposalSet,
    SamplerConfig,
    SvFilterModel,
    SvParams,
    kalman_filter,
    lgss_simulate,
    log_bias_mse,
    run_filter,
    sv_simulate,
)
from rieszmc.errors import AllWeightsZero, LengthMismatch
from rieszmc.smc import (
    _CELL_RANK_MIN,
    _SORTED_SEARCH_MIN,
    _multinomial_indices,
    _search_unsorted,
    _systematic_indices,
)

PAPER = LgssParams(phi=0.75, sigma_v=1.0, sigma_o=0.1)
RP = RieszParams(s=40.0, d=1)
SCFG = SamplerConfig(n_points=50, seed=0)


@pytest.fixture(scope="module")
def pset50():
    return RieszProposalSet.standard_normal(50, RP, SCFG)


class TestMultinomialResample:
    def test_uniform_weights_frequencies(self):
        rng = np.random.default_rng(0)
        n = 10
        idx = _multinomial_indices(np.full(n, 1.0 / n), rng, 100_000)
        freq = np.bincount(idx, minlength=n) / 100_000
        se = math.sqrt(0.1 * 0.9 / 100_000)
        assert np.all(np.abs(freq - 0.1) < 3 * se + 1e-12)

    def test_point_mass(self):
        rng = np.random.default_rng(1)
        idx = _multinomial_indices(np.array([1.0, 0.0, 0.0]), rng, 500)
        assert np.all(idx == 0)

    def test_chi_square_goodness_of_fit(self):
        rng = np.random.default_rng(2)
        w = np.array([0.5, 0.3, 0.2])
        draws = 100_000
        idx = _multinomial_indices(w, rng, draws)
        counts = np.bincount(idx, minlength=3)
        stat = np.sum((counts - draws * w) ** 2 / (draws * w))
        assert stat < chi2.ppf(0.99, df=2)


class TestSystematicResample:
    def test_equal_weights_hit_every_index_once(self):
        rng = np.random.default_rng(31)
        idx = _systematic_indices(np.full(16, 1.0 / 16), rng, 16)
        assert np.array_equal(np.sort(idx), np.arange(16))

    def test_counts_match_weights_within_one(self):
        rng = np.random.default_rng(32)
        w = np.array([0.5, 0.3, 0.2])
        idx = _systematic_indices(w, rng, 1000)
        counts = np.bincount(idx, minlength=3)
        assert np.all(np.abs(counts - 1000 * w) <= 1.0)


# key counts on both sides of the sorted-search and cell-rank cutoffs, and
# wide-filter sizes above both
_KEY_COUNTS = sorted({1, 7, _CELL_RANK_MIN - 1, _CELL_RANK_MIN,
                      _SORTED_SEARCH_MIN - 1, _SORTED_SEARCH_MIN,
                      2047, 2048, 4099})
_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


class TestSearchUnsorted:
    """_search_unsorted and the proposal set's cell rank must equal
    np.searchsorted(side="right") exactly."""

    @staticmethod
    def _assert_same(a, v):
        got = _search_unsorted(a, v)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.searchsorted(a, v, side="right"))

    @settings(max_examples=80, deadline=None)
    @given(table=st.lists(_FINITE, min_size=1, max_size=40),
           extra=st.lists(st.one_of(_FINITE, st.sampled_from(
               [math.inf, -math.inf])), max_size=20),
           n=st.sampled_from(_KEY_COUNTS), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_searchsorted(self, table, extra, n, seed):
        # keys are drawn with repetition from the table's own entries and
        # the extra values, so ties with a and repeated keys are common
        a = np.sort(np.array(table))
        pool = np.concatenate([a, np.array(extra, dtype=float)])
        self._assert_same(a, np.random.default_rng(seed).choice(pool, n))

    @pytest.mark.parametrize("n", _KEY_COUNTS)
    def test_weight_cdf_with_long_zero_runs(self, n):
        rng = np.random.default_rng(n)
        w = np.zeros(5000)
        w[rng.choice(5000, 12, replace=False)] = rng.random(12)
        w[:300] = 0.0
        edges = np.cumsum(w / w.sum())
        edges[-1] = 1.0
        keys = np.concatenate([rng.random(n), rng.choice(edges, n), [0.0]])
        self._assert_same(edges, keys)

    @pytest.mark.parametrize("n", _KEY_COUNTS)
    def test_proposal_set_residuals(self, pset50, n):
        rng = np.random.default_rng(n)
        z = pset50._sorted_z
        keys = np.concatenate([
            rng.choice(z, n) + rng.laplace(0.0, 0.07, n),
            rng.choice(z, n), rng.standard_normal(n) * 30.0,
            [math.inf, -math.inf]])
        got = pset50._rank(keys)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.searchsorted(z, keys, side="right"))

    @settings(max_examples=150, deadline=None)
    @given(base=st.lists(st.integers(-3200, 3200), min_size=1, max_size=30,
                         unique=True),
           clumps=st.lists(st.integers(0, 6), min_size=1, max_size=30),
           n=st.sampled_from(_KEY_COUNTS), seed=st.integers(0, 2 ** 32 - 1))
    def test_cell_rank_matches_searchsorted(self, base, clumps, n, seed):
        # each base point k / 64 + 0.3 grows a clump of up to 6 neighbours
        # one ulp apart, so cells hold several points (depth > 1); two-point
        # sets included
        pts = []
        for v, extra in zip(np.array(base) / 64 + 0.3,
                            clumps + [0] * len(base)):
            for _ in range(extra + 1):
                pts.append(v)
                v = np.nextafter(v, np.inf)
        pts = np.unique(pts)
        if pts.size < 2:
            pts = np.append(pts, pts[0] + 1.0)
        pset = RieszProposalSet(PointConfiguration(pts[:, None],
                                                   np.ones(pts.size), 1))
        z = pset._sorted_z
        rng = np.random.default_rng(seed)
        pool = np.concatenate([
            z, z + np.diff(z).min() / 2, [math.inf, -math.inf],
            [z[0] - 1e6, z[-1] + 1e6, z[0] - 1e-9, z[-1] + 1e-9],
            rng.uniform(z[0] - 1.0, z[-1] + 1.0, 64)])
        keys = rng.choice(pool, n)
        got = pset._rank(keys)
        assert np.array_equal(got, np.searchsorted(z, keys, side="right"))


class TestRieszProposalSet:
    @pytest.mark.parametrize("tail_mix", [0.0, 0.05, 0.5, 1.0])
    def test_logpdf_integrates_to_one(self, pset50, tail_mix):
        pset = RieszProposalSet(pset50.configuration,
                                ProposalSpec(jitter=0.1, tail_mix=tail_mix))
        grid = np.linspace(-9.0, 9.0, 40_001)
        means = np.full_like(grid, 0.3)
        stds = np.full_like(grid, 0.7)
        dens = np.exp(pset.logpdf(0.3 + 0.7 * (grid - 0.3) / 0.7, means, stds))
        # integrate over x = mean + std * r grid
        x = means + stds * ((grid - 0.3) / 0.7)
        mass = np.trapezoid(dens, x)
        assert mass == pytest.approx(1.0, abs=2e-4)

    @pytest.mark.parametrize("tail_mix", [0.0, 0.05])
    def test_logpdf_matches_extended_precision_mixture(self, pset50,
                                                       tail_mix):
        # brute-force sum over all N' Laplace kernels at 50 digits; the
        # bound is ten times the conditioning ulp(|r| / b) at |r| = 30
        pset = RieszProposalSet(pset50.configuration,
                                ProposalSpec(jitter=0.1, tail_mix=tail_mix))
        z = pset50.configuration.points[:, 0]
        on_z = z[[0, 17, 49]]
        r = np.concatenate(([-1.3, 0.2, 2.1], on_z, [8.0, -8.0, 30.0, -30.0]))
        means = np.linspace(-0.4, 0.9, r.size)
        stds = np.linspace(0.3, 2.0, r.size)
        # frame (0, 1) puts the on-kernel cases exactly on z_j
        means[3:6], stds[3:6] = 0.0, 1.0
        x = means + stds * r
        got = pset.logpdf(x, means, stds)
        assert np.all(np.isfinite(got))
        with mp.workdps(50):
            b = mp.mpf(0.1) / mp.sqrt(2)
            for xi, mi, si, gi in zip(x, means, stds, got):
                ri = (mp.mpf(xi) - mp.mpf(mi)) / mp.mpf(si)
                narrow = mp.fsum(mp.exp(-abs(ri - mp.mpf(zj)) / b)
                                 for zj in z) / (2 * b * z.size)
                wide = mp.npdf(ri)
                want = (mp.log((1 - mp.mpf(tail_mix)) * narrow
                               + mp.mpf(tail_mix) * wide) - mp.log(si))
                assert abs(gi - float(want)) <= 1e-12, (float(ri), gi)

    def test_pure_gaussian_limit(self, pset50):
        pset = RieszProposalSet(pset50.configuration,
                                ProposalSpec(tail_mix=1.0))
        x = np.array([0.3, -1.0, 2.0])
        means = np.array([0.0, 0.5, 1.0])
        stds = np.array([1.0, 2.0, 0.5])
        want = (-0.5 * ((x - means) / stds) ** 2
                - 0.5 * math.log(2 * math.pi) - np.log(stds))
        assert np.allclose(pset.logpdf(x, means, stds), want, rtol=1e-12)

    # residuals on both sides of the cell-rank cutoff
    @pytest.mark.parametrize("n", [_CELL_RANK_MIN - 1, _CELL_RANK_MIN])
    @pytest.mark.parametrize("tail_mix", [0.0, 0.05])
    def test_nan_residual_gives_nan_density(self, pset50, tail_mix, n):
        pset = RieszProposalSet(pset50.configuration,
                                ProposalSpec(tail_mix=tail_mix))
        x = np.linspace(-3.0, 3.0, n)
        x[[0, n // 2]] = np.nan
        got = pset.logpdf(x, np.zeros(n), 1.0)
        assert np.isnan(got[[0, n // 2]]).all()
        assert np.isfinite(np.delete(got, [0, n // 2])).all()

    def test_sample_matches_density_moments(self, pset50):
        rng = np.random.default_rng(7)
        n = 200_000
        means = np.zeros(n)
        stds = np.ones(n)
        x, _ = pset50.sample(means, stds, rng)
        grid = np.linspace(-9, 9, 20_001)
        dens = np.exp(pset50.logpdf(grid, np.zeros_like(grid),
                                    np.ones_like(grid)))
        mean_want = np.trapezoid(grid * dens, grid)
        var_want = np.trapezoid((grid - mean_want) ** 2 * dens, grid)
        assert x.mean() == pytest.approx(mean_want, abs=0.02)
        assert x.var() == pytest.approx(var_want, rel=0.03)

    @pytest.mark.parametrize("index_mode", ["random", "modulo"])
    @pytest.mark.parametrize("tail_mix", [0.0, 0.05, 1.0])
    def test_sample_follows_logpdf(self, pset50, tail_mix, index_mode):
        # KS distance of 400,000 standardized draws against the CDF
        # integrated from exp(logpdf) on a fine grid; the bound is the 1%
        # critical value 1.628 / sqrt(n)
        pset = RieszProposalSet(pset50.configuration, ProposalSpec(
            tail_mix=tail_mix, index_mode=index_mode))
        n = 400_000
        rng = np.random.default_rng(41)
        means = rng.uniform(-2.0, 2.0, n)
        stds = rng.uniform(0.5, 2.0, n)
        x, _ = pset.sample(means, stds, rng)
        r = np.sort((x - means) / stds)
        grid = np.linspace(-10.0, 10.0, 80_001)
        dens = np.exp(pset.logpdf(grid, np.zeros_like(grid), 1.0))
        cdf = np.concatenate(([0.0], np.cumsum(
            0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))))
        f = np.interp(r, grid, cdf)
        ks = max(np.max(np.arange(1, n + 1) / n - f),
                 np.max(f - np.arange(n) / n))
        assert ks < 1.628 / math.sqrt(n)

    def test_tail_mix_one_draws_one_normal_per_particle(self, pset50):
        pset = RieszProposalSet(pset50.configuration,
                                ProposalSpec(tail_mix=1.0))
        means = np.linspace(-1.0, 1.0, 7)
        stds = np.linspace(0.5, 2.0, 7)
        rng = np.random.default_rng(3)
        x, idx = pset.sample(means, stds, rng)
        ref = np.random.default_rng(3)
        assert idx is None
        assert np.array_equal(x, means + stds * ref.standard_normal(7))
        # nothing else was drawn
        assert rng.random() == ref.random()

    def test_modulo_assignment(self, pset50):
        pset = RieszProposalSet(pset50.configuration, ProposalSpec(
            jitter=1e-12, tail_mix=0.0, index_mode="modulo"))
        n = 120
        rng = np.random.default_rng(9)
        x, idx = pset.sample(np.zeros(n), np.ones(n), rng)
        want = np.arange(n) % pset.size
        assert np.array_equal(idx, want)
        assert np.allclose(x, pset._z[want], atol=1e-9)

    def test_validation(self, pset50):
        with pytest.raises(ValueError):
            ProposalSpec(jitter=0.0)
        with pytest.raises(ValueError):
            ProposalSpec(tail_mix=1.5)
        with pytest.raises(ValueError):
            ProposalSpec(index_mode="bogus")
        with pytest.raises(ValueError):
            ProposalSpec(resampling="bogus")
        with pytest.raises(ValueError):
            RieszProposalSet(PointConfiguration(np.array([[0.0]]),
                                                np.array([1.0]), 1))

    def test_modulo_with_systematic_resampling_rejected(self):
        # systematic resampling gives an ancestor's offspring a contiguous
        # block of indices, so i mod N' would depend on the ancestor
        with pytest.raises(ValueError, match="modulo"):
            ProposalSpec(index_mode="modulo", resampling="systematic")
        ProposalSpec(index_mode="modulo", resampling="multinomial")
        ProposalSpec(index_mode="random", resampling="systematic")


class _SingleParticleModel:
    """f, g and frames chosen so the weight identity is directly checkable."""

    def initial_states(self, n, rng):
        return np.full(n, 0.2)

    def transition_logpdf(self, x, x_prev):
        return -0.5 * (x - x_prev) ** 2 - 0.5 * math.log(2 * math.pi)

    def observation_logpdf(self, y, x):
        return -0.5 * (y - x) ** 2 - 0.5 * math.log(2 * math.pi)

    def proposal_moments(self, x_prev, y):
        return 0.5 * (x_prev + y), np.full(len(x_prev), math.sqrt(0.5))


class _DeadModel(_SingleParticleModel):
    def observation_logpdf(self, y, x):
        return np.full(np.shape(x), -np.inf)


class _SpreadLgssModel(LgssFilterModel):
    def initial_states(self, n, rng):
        return np.linspace(-0.2, 0.2, n)


class TestPropagateAndWeight:
    """One propagate/weight step: run_filter on a single observation."""

    def test_kalman_one_step_predictive(self, pset50):
        # optimal proposal as q (tail_mix = 1): every weight equals
        # p(y | x_prev), so with identical ancestors the increment is the
        # exact one-step predictive log-density
        model = LgssFilterModel(PAPER, x0=0.4)
        n = 64
        pset = RieszProposalSet(pset50.configuration,
                                ProposalSpec(tail_mix=1.0))
        y = 1.3
        out = run_filter(model, [y], n, 50, RP, SCFG,
                         np.random.default_rng(0), proposal_set=pset)
        want = kalman_filter(PAPER, [y], 0.4, 0.0).log_likelihood
        assert out.log_likelihood == pytest.approx(want, abs=1e-12)
        assert out.ess_trace.shape == (1,)
        assert out.ess_trace[0] == pytest.approx(n, rel=1e-12)

    def test_single_particle_identity(self, pset50):
        model = _SingleParticleModel()
        pset = RieszProposalSet(pset50.configuration,
                                ProposalSpec(tail_mix=0.3))
        y = 0.9
        out = run_filter(model, [y], 1, 50, RP, SCFG,
                         np.random.default_rng(1), proposal_set=pset)
        # replay the step's draws: one resampling uniform, then the proposal
        rng = np.random.default_rng(1)
        rng.random(1)
        means, stds = model.proposal_moments(np.array([0.2]), y)
        x, _ = pset.sample(means, stds, rng)
        want = (model.observation_logpdf(y, x)
                + model.transition_logpdf(x, 0.2)
                - pset.logpdf(x, means, stds))[0]
        assert out.filtered_means[0] == x[0]
        assert out.log_likelihood == pytest.approx(float(want), rel=1e-12)

    def test_all_weights_zero(self, pset50):
        with pytest.raises(AllWeightsZero):
            run_filter(_DeadModel(), [0.0], 8, 50, RP, SCFG,
                       np.random.default_rng(2), proposal_set=pset50)

    def test_riesz_weights_match_ratio_definition(self, pset50):
        model = _SpreadLgssModel(PAPER, x0=0.0)
        n = 32
        out = run_filter(model, [0.7], n, 50, RP, SCFG,
                         np.random.default_rng(3), proposal_set=pset50)
        rng = np.random.default_rng(3)
        x_prev = model.initial_states(n, rng)[
            _multinomial_indices(np.full(n, 1.0 / n), rng, n)]
        means, stds = model.proposal_moments(x_prev, 0.7)
        x, _ = pset50.sample(means, stds, rng)
        log_w = (model.observation_logpdf(0.7, x)
                 + model.transition_logpdf(x, x_prev)
                 - pset50.logpdf(x, means, stds))
        w = np.exp(log_w - logsumexp(log_w))
        assert out.log_likelihood == pytest.approx(
            logsumexp(log_w) - math.log(n), rel=1e-12)
        assert out.filtered_means[0] == pytest.approx(w @ x, rel=1e-12)
        assert out.ess_trace[0] == pytest.approx(1.0 / np.sum(w ** 2),
                                                 rel=1e-12)


# the CLI's theta0 for pmh-sv, and previous states across the prior's range
_SV = SvParams(mu=0.0, rho=0.95, sigma_v=0.2)
_X_PREV = np.linspace(-3.0, 3.0, 25)


class TestSvFrame:
    """The SV frame is the mode of p(x_t | x_prev, y_t) and the curvature
    there: the log posterior -(x - m)^2 / (2v) - x/2 - c e^{-x}, with
    c = y^2 / (2 tau), has gradient -(x - m)/v - 1/2 + c e^{-x}."""

    @staticmethod
    def _terms(x_prev, y):
        m = _SV.mu + _SV.rho * (x_prev - _SV.mu)
        return m, _SV.sigma_v ** 2, y * y / (2.0 * _SV.tau)

    @pytest.mark.parametrize("y", [80.0, -25.0])
    def test_crash_day_frame_is_the_mode(self, y):
        mean, std = SvFilterModel(_SV).proposal_moments(_X_PREV, y)
        m, v, c = self._terms(_X_PREV, y)
        prior, obs = -(mean - m) / v, c * np.exp(-mean)
        assert np.all(np.abs(prior - 0.5 + obs)
                      <= 1e-9 * (np.abs(prior) + 0.5 + obs))
        assert np.allclose(std, (1.0 / v + obs) ** -0.5, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("y", [-5.0, -1.3, 0.3, 2.0])
    def test_ordinary_returns_match_converged_newton(self, y):
        # Newton on the decreasing convex gradient converges from any
        # start; 200 steps reach the root to the last bits
        m, v, c = self._terms(_X_PREV, y)
        x = m.copy()
        for _ in range(200):
            e = c * np.exp(-x)
            x = x - (-(x - m) / v - 0.5 + e) / (-1.0 / v - e)
        mean, std = SvFilterModel(_SV).proposal_moments(_X_PREV, y)
        assert np.allclose(mean, x, rtol=0, atol=1e-12)
        assert np.allclose(std, (1.0 / v + c * np.exp(-x)) ** -0.5,
                           rtol=0, atol=1e-12)

    def test_zero_return_gives_the_shifted_prior(self):
        mean, std = SvFilterModel(_SV).proposal_moments(_X_PREV, 0.0)
        m, v, _ = self._terms(_X_PREV, 0.0)
        assert np.allclose(mean, m - v / 2, rtol=0, atol=1e-15)
        assert np.allclose(std, _SV.sigma_v, rtol=1e-15, atol=0)


class TestRunFilter:
    def test_uninformative_observations_follow_prior(self):
        p = LgssParams(phi=0.75, sigma_v=1.0, sigma_o=1e3)
        traj = lgss_simulate(p, 10, 2.0, np.random.default_rng(4))
        model = LgssFilterModel(p, x0=2.0)
        out = run_filter(model, traj.observations, 4000, 50, RP, SCFG,
                         np.random.default_rng(5), mode="frozen")
        prior_means = 2.0 * p.phi ** np.arange(1, 11)
        # MC error of the plain mean across 10 steps
        assert np.max(np.abs(out.filtered_means - prior_means)) < 0.25

    @pytest.mark.parametrize("n", [10, 70])
    def test_modulo_indexing_unbiased_when_set_size_does_not_divide_n(
            self, pset50, n):
        # n = 10 draws only kernels 0..9 of 50, n = 70 draws 0..19 twice
        traj = lgss_simulate(PAPER, 3, 0.0, np.random.default_rng(5))
        ko = kalman_filter(PAPER, traj.observations, 0.0, 0.0)
        model = LgssFilterModel(PAPER, 0.0)
        pset = RieszProposalSet(pset50.configuration,
                                ProposalSpec(index_mode="modulo"))
        ratios = np.array([
            math.exp(run_filter(model, traj.observations, n, 50, RP, SCFG,
                                np.random.default_rng(seed),
                                proposal_set=pset).log_likelihood
                     - ko.log_likelihood)
            for seed in range(1500)])
        se = ratios.std(ddof=1) / math.sqrt(len(ratios))
        assert abs(ratios.mean() - 1.0) < 4 * se

    def test_filtered_mean_and_band_are_weighted(self, pset50):
        # n = 2000 particles: the weighted mean sits on the Kalman mean and
        # the weighted 2.5% / 97.5% band on its +-1.96 sd band
        traj = lgss_simulate(PAPER, 50, 0.0, np.random.default_rng(22))
        ko = kalman_filter(PAPER, traj.observations, 0.0, 0.0)
        out = run_filter(LgssFilterModel(PAPER, 0.0), traj.observations,
                         2000, 50, RP, SCFG, np.random.default_rng(3),
                         proposal_set=pset50, record_percentiles=True)
        sd = np.sqrt(ko.filtered_variances)
        z = (out.filtered_means - ko.filtered_means) / sd
        assert abs(z.mean()) < 0.015
        assert np.all(out.percentile_lo <= out.filtered_means)
        assert np.all(out.filtered_means <= out.percentile_hi)
        z_lo = np.mean((out.percentile_lo - ko.filtered_means) / sd)
        z_hi = np.mean((out.percentile_hi - ko.filtered_means) / sd)
        assert z_lo == pytest.approx(-1.96, abs=0.1)
        assert z_hi == pytest.approx(1.96, abs=0.1)

    def test_variance_shrinks_with_more_particles(self, pset50):
        traj = lgss_simulate(PAPER, 20, 0.0, np.random.default_rng(8))
        model = LgssFilterModel(PAPER, 0.0)
        variances = {}
        for n in (10, 1000):
            lls = [run_filter(model, traj.observations, n, 50, RP, SCFG,
                              np.random.default_rng(500 + s), mode="frozen",
                              proposal_set=pset50).log_likelihood
                   for s in range(20)]
            variances[n] = np.var(lls, ddof=1)
        assert variances[1000] < variances[10]

    def test_determinism(self):
        traj = lgss_simulate(PAPER, 8, 0.0, np.random.default_rng(9))
        model = LgssFilterModel(PAPER, 0.0)
        small = SamplerConfig(n_points=20, candidate_count=64, seed=2)
        a = run_filter(model, traj.observations, 30, 20, RP, small,
                       np.random.default_rng(11))
        b = run_filter(model, traj.observations, 30, 20, RP, small,
                       np.random.default_rng(11))
        assert a.log_likelihood == b.log_likelihood
        assert np.array_equal(a.filtered_means, b.filtered_means)
        assert np.array_equal(a.ess_trace, b.ess_trace)

    def test_only_the_frozen_mode_is_accepted(self, pset50):
        with pytest.raises(ValueError, match="frozen"):
            run_filter(LgssFilterModel(PAPER, 0.0), [0.1], 10, 50, RP, SCFG,
                       np.random.default_rng(0), mode="regenerate",
                       proposal_set=pset50)

    def test_sv_filter_agrees_with_bootstrap_oracle(self):
        from rieszmc import sv_observation_logpdf
        svp = SvParams(mu=0.0, rho=0.95, sigma_v=0.3)
        traj = sv_simulate(svp, 150, np.random.default_rng(12))
        model = SvFilterModel(svp)
        out = run_filter(model, traj.observations, 200, 50, RP, SCFG,
                         np.random.default_rng(13), mode="frozen",
                         record_percentiles=True)
        assert np.isfinite(out.log_likelihood)
        # independent reference: plain bootstrap filter with many particles
        rng = np.random.default_rng(99)
        n_ref = 20_000
        x = svp.mu + math.sqrt(svp.stationary_variance) * \
            rng.standard_normal(n_ref)
        w = np.full(n_ref, 1.0 / n_ref)
        ref_means = np.empty(150)
        ref_ll = 0.0
        for t, y in enumerate(traj.observations):
            anc = np.searchsorted(np.cumsum(w), rng.random(n_ref))
            x = (svp.mu + svp.rho * (x[anc] - svp.mu)
                 + svp.sigma_v * rng.standard_normal(n_ref))
            lw = sv_observation_logpdf(y, x, svp)
            m = lw.max()
            raw = np.exp(lw - m)
            ref_ll += m + math.log(raw.mean())
            w = raw / raw.sum()
            ref_means[t] = float(w @ x)
        corr = np.corrcoef(out.filtered_means, ref_means)[0, 1]
        rmse = math.sqrt(np.mean((out.filtered_means - ref_means) ** 2))
        assert corr > 0.8
        assert rmse < 0.5
        assert abs(out.log_likelihood - ref_ll) < 5.0
        # 95% interval coverage of the true latent path
        inside = np.mean((traj.states[1:] >= out.percentile_lo)
                         & (traj.states[1:] <= out.percentile_hi))
        assert inside > 0.85

    def test_log_mse_monotone_over_seven_levels(self, pset50):
        # one inversion among the seven particle counts is tolerated
        traj = lgss_simulate(PAPER, 100, 0.0, np.random.default_rng(21))
        ko = kalman_filter(PAPER, traj.observations, 0.0, 0.0)
        model = LgssFilterModel(PAPER, 0.0)
        log_mse = []
        for n in (10, 20, 50, 100, 200, 500, 1000):
            sq = []
            for seed in range(5):
                out = run_filter(model, traj.observations, n, 50, RP, SCFG,
                                 np.random.default_rng(7919 * n + seed),
                                 mode="frozen", proposal_set=pset50)
                sq.append(np.mean((out.filtered_means
                                   - ko.filtered_means) ** 2))
            log_mse.append(math.log(np.mean(sq)))
        inversions = sum(b >= a for a, b in zip(log_mse, log_mse[1:]))
        assert inversions <= 1, log_mse

    def test_n_smaller_than_n_prime_allowed(self, pset50):
        traj = lgss_simulate(PAPER, 5, 0.0, np.random.default_rng(14))
        model = LgssFilterModel(PAPER, 0.0)
        out = run_filter(model, traj.observations, 10, 50, RP, SCFG,
                         np.random.default_rng(15), mode="frozen",
                         proposal_set=pset50)
        assert np.isfinite(out.log_likelihood)

    def test_systematic_resampling_flag(self, pset50):
        traj = lgss_simulate(PAPER, 10, 0.0, np.random.default_rng(16))
        ko = kalman_filter(PAPER, traj.observations, 0.0, 0.0)
        model = LgssFilterModel(PAPER, 0.0)
        pset = RieszProposalSet(pset50.configuration,
                                ProposalSpec(resampling="systematic"))
        out = run_filter(model, traj.observations, 200, 50, RP, SCFG,
                         np.random.default_rng(17), mode="frozen",
                         proposal_set=pset)
        assert np.isfinite(out.log_likelihood)
        assert abs(out.log_likelihood - ko.log_likelihood) < 2.0
        with pytest.raises(ValueError):
            ProposalSpec(resampling="bogus")


_OPTIONS = {
    "default": ProposalSpec(),
    "tail_mix=0": ProposalSpec(tail_mix=0.0),
    "tail_mix=1": ProposalSpec(tail_mix=1.0),
    "modulo": ProposalSpec(index_mode="modulo"),
    "systematic": ProposalSpec(resampling="systematic"),
}


def _assert_unbiased(model, obs, log_p, pset, n, seed0):
    """The mean of p-hat / p over 1,500 seeds from seed0 is within 4 SE of 1."""
    ratios = np.array([
        math.exp(run_filter(model, obs, n, 50, RP, SCFG,
                            np.random.default_rng(seed0 + seed),
                            proposal_set=pset).log_likelihood - log_p)
        for seed in range(1500)])
    se = ratios.std(ddof=1) / math.sqrt(len(ratios))
    assert abs(ratios.mean() - 1.0) < 4 * se, (ratios.mean(), se)


@pytest.mark.parametrize("n", [10, 50, 70, 400])
@pytest.mark.parametrize("option", sorted(_OPTIONS))
def test_likelihood_unbiased_for_every_proposal_option(pset50, option, n):
    # E[p-hat] = p for every proposal option, with n below, at and above
    # N' = 50, and at n = 8 N': the mean of p-hat / p over 1,500 seeds
    # within 4 SE of 1
    traj = lgss_simulate(PAPER, 3, 0.0, np.random.default_rng(5))
    log_p = kalman_filter(PAPER, traj.observations, 0.0, 0.0).log_likelihood
    pset = RieszProposalSet(pset50.configuration, _OPTIONS[option])
    _assert_unbiased(LgssFilterModel(PAPER, 0.0), traj.observations, log_p,
                     pset, n, 20_000)


def _sv_grid_log_likelihood(p: SvParams, obs, lo=-6.0, hi=10.0, m=1601):
    """log p(y_1:T) of the SV model by the filtering recursion on a grid.

    The densities are Gaussian in x on a spacing of sigma_v / 20, so the
    Riemann sums converge far below Monte Carlo error; 801 and 3,201 points
    give the same value.
    """
    x = np.linspace(lo, hi, m)
    dx = x[1] - x[0]
    dens = norm.pdf(x, p.mu, math.sqrt(p.stationary_variance))
    trans = norm.pdf(x[:, None], p.mu + p.rho * (x[None, :] - p.mu),
                     p.sigma_v)
    log_lik = 0.0
    for y in obs:
        joint = (trans @ dens) * dx * norm.pdf(y, 0.0,
                                               np.sqrt(p.tau * np.exp(x)))
        mass = joint.sum() * dx
        log_lik += math.log(mass)
        dens = joint / mass
    return log_lik


@pytest.mark.parametrize("n", [10, 50])
def test_sv_likelihood_unbiased_with_a_crash_day(pset50, n):
    # E[p-hat] = p for the SV model whose proposal frame sits on the mode of
    # p(x_t | x_prev, y_t), over a record whose first return is an 8-sigma
    # crash: the mean of p-hat / p over 1,500 seeds within 4 SE of 1
    obs = np.array([-8.0, 0.5, 1.2])
    log_p = _sv_grid_log_likelihood(_SV, obs)
    _assert_unbiased(SvFilterModel(_SV), obs, log_p, pset50, n, 40_000)


# SHA-256 of the filtered means, log-likelihood, ESS trace and band of a
# seeded LGSS filter with n above _SORTED_SEARCH_MIN and _CELL_RANK_MIN, so
# that ancestors come from the sorted search and kernel ranks from the cell
# table.  The plain np.searchsorted calls give the same digests; x86-64,
# numpy 2.4 and scipy 1.17.
_WIDE_PINNED = {
    "multinomial":
        "7bd898e0e4cdc06a22b9e83f5286836efb2fed035776e6b897d1c4108f839967",
    "systematic":
        "b30bde063d68ef3ca9812867d1d053da8f11ba04e5ffbb2fab3d51a5b423d531",
}


@pytest.mark.parametrize("resampling", sorted(_WIDE_PINNED))
def test_seeded_wide_filter_is_pinned(pset50, resampling):
    n = 4096
    assert n >= max(_SORTED_SEARCH_MIN, _CELL_RANK_MIN)
    traj = lgss_simulate(PAPER, 25, 0.0, np.random.default_rng(21))
    pset = RieszProposalSet(pset50.configuration,
                            ProposalSpec(resampling=resampling))
    out = run_filter(LgssFilterModel(PAPER, 0.0), traj.observations, n, 50,
                     RP, SCFG, np.random.default_rng(22), proposal_set=pset,
                     record_percentiles=True)
    h = hashlib.sha256()
    for a in (out.filtered_means, np.array([out.log_likelihood]),
              out.ess_trace, out.percentile_lo, out.percentile_hi):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == _WIDE_PINNED[resampling]


class TestLogBiasMse:
    def test_identity_sentinel(self):
        lb, lm = log_bias_mse([1.0, 2.0], [1.0, 2.0])
        assert lb == -1e9 and lm == -1e9

    def test_unit_offset(self):
        lb, lm = log_bias_mse([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
        assert lb == pytest.approx(0.0, abs=1e-12)
        assert lm == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            log_bias_mse([1.0], [1.0, 2.0])
