"""Pair potential, configuration energy and diagnostics."""

import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist
from scipy.special import logsumexp, ndtr
from scipy.stats import kstest

from rieszmc import (
    DensityOracle,
    PointConfiguration,
    RieszParams,
    config_energy,
    covering_radius,
    log_pair_energy,
    min_separation,
    uniformity_statistic,
)
from rieszmc.energy import _pdist, distances, row_logsumexp
from rieszmc.errors import DegenerateDistance, NonPositiveBracket

from conftest import random_configuration

P40 = RieszParams(s=40.0, d=1, alpha=1.0, beta=2.0)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestScipyArithmetic:
    """The numpy distances and log-sum-exp equal scipy's bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_distances_equal_cdist_and_pdist(self, d):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(37, d)) * np.exp(rng.uniform(-20, 20, (37, 1)))
        b = rng.normal(size=(23, d)) * 3.0
        # coincident rows, rows apart by a subnormal square, and huge rows
        a[:3] = b[:3]
        a[3], b[3] = 1e-160, -1e-160
        a[4], a[5] = 1e300, -1e300
        assert np.array_equal(_bits(distances(a[:, None], b)),
                              _bits(cdist(a, b)))
        assert np.array_equal(_bits(_pdist(a)[0]), _bits(pdist(a)))

    def test_distances_overflow_silently(self):
        a = np.array([[1e300, 0.0], [-1e300, 0.0], [np.inf, 1.0]])
        with np.errstate(all="raise", under="ignore"):
            r, _, _ = _pdist(a)
        assert np.array_equal(r, pdist(a))

    def test_row_logsumexp_equals_scipy(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(12, 9)) * 50.0
        a[0] = 3.0                        # every entry tied at the max
        a[1, [2, 5]] = a[1].max() + 1.0   # two tied maxima
        a[2, [0, 4, 8]] = -np.inf
        a[3, 3] = np.inf
        a[4] = -np.inf                    # an all -inf row
        a[5, [1, 6]] = np.inf
        a[6, 0] = 1e308                   # the shifted form overflows
        a[6, 1] = 1e308
        a[7, :] = -1e300
        with np.errstate(all="raise", under="ignore"):
            got = row_logsumexp(a)
        want = logsumexp(a, axis=1)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("k", [1, 2, 3, 9, 300, 1000])
    def test_row_logsumexp_equals_scipy_on_random_rows(self, k):
        # log1p(s / count) + log(count) and log(count + s) differ in the
        # last bit on a few percent of such rows
        rng = np.random.default_rng(k)
        a = rng.normal(size=(500, k)) * rng.uniform(0.1, 50.0, (500, 1))
        assert np.array_equal(_bits(row_logsumexp(a)),
                              _bits(logsumexp(a, axis=1)))
        assert _bits(row_logsumexp(a[:1])[0]) == _bits(logsumexp(a[0]))


class TestRieszParams:
    def test_bracket_exponent(self):
        assert P40.bracket_exponent == -20.0
        assert RieszParams(s=10.0, d=2).bracket_exponent == -2.5

    @pytest.mark.parametrize("kwargs", [
        dict(s=1.0, d=1),          # s must exceed d
        dict(s=2.0, d=2),
        dict(s=40.0, d=1, beta=-0.1),
        dict(s=40.0, d=1, eps_dist=0.0),
        dict(s=40.0, d=0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RieszParams(**kwargs)


class TestLogPairWeight:
    """The weight factor of log_pair_energy: energy + s * log r."""

    def test_unit_bracket(self):
        # k_i k_j = 0.5, r = 0.25 -> bracket = 1 -> 1^-20 = 1
        got = log_pair_energy([0.0], [0.25], 1.0, 0.5, P40)
        assert got + 40.0 * math.log(0.25) == pytest.approx(1.0, rel=1e-13)

    def test_large_bracket_weight_tends_to_one(self):
        # r = 1 leaves the weight alone; bracket 10 -> 10^-20, i.e. the
        # weight itself tends to 1
        xi, xj = [0.0], [1.0]
        lw = log_pair_energy(xi, xj, 2.0, 4.0, P40)  # bracket = 8 + 2 = 10
        assert lw == pytest.approx(10.0 ** -20, rel=1e-12)
        assert math.exp(lw) == pytest.approx(1.0, abs=1e-15)

    def test_against_extended_precision(self):
        import mpmath as mp
        # kappa product 0.2, r = 0.5 -> bracket 1.2
        got = log_pair_energy([0.25], [0.75], 0.4, 0.5, P40)
        with mp.workdps(50):
            want = float(mp.mpf("1.2") ** -20 - 40 * mp.log(mp.mpf("0.5")))
        assert got == pytest.approx(want, rel=1e-14)

    def test_degenerate_distance(self):
        with pytest.raises(DegenerateDistance):
            log_pair_energy([0.3], [0.3], 1.0, 1.0, P40)

    def test_non_positive_bracket(self):
        p = RieszParams(s=40.0, d=1, alpha=-1.0, beta=2.0)
        # bracket = -4 + 2 * 0.5 = -3
        with pytest.raises(NonPositiveBracket):
            log_pair_energy([0.0], [0.5], 2.0, 2.0, p)


class TestLogPairEnergy:
    def test_unit_bracket_closed_form(self):
        got = log_pair_energy([0.0], [0.25], 1.0, 0.5, P40)
        assert got == pytest.approx(1.0 + 40.0 * math.log(4.0), rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            xi, xj = rng.uniform(0, 3, size=(2, 2))
            if np.linalg.norm(xi - xj) < 1e-6:
                continue
            ki, kj = rng.uniform(0.05, 3.0, size=2)
            p = RieszParams(s=rng.uniform(3, 60), d=2, beta=rng.uniform(0, 4))
            assert log_pair_energy(xi, xj, ki, kj, p) == pytest.approx(
                log_pair_energy(xj, xi, kj, ki, p), rel=1e-13)

    def test_against_extended_precision(self, mp_pair_log_energy):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 3))
            xi, xj = rng.uniform(0, 3, size=(2, d))
            if np.linalg.norm(xi - xj) < 1e-3:
                continue
            ki, kj = rng.uniform(0.05, 3.0, size=2)
            s = float(rng.uniform(d + 0.5, 60))
            beta = float(rng.uniform(0, 4))
            p = RieszParams(s=s, d=d, beta=beta)
            want = float(mp_pair_log_energy(xi, xj, ki, kj, s, d, 1.0, beta))
            got = log_pair_energy(xi, xj, ki, kj, p)
            assert got == pytest.approx(want, rel=1e-11)


class TestConfigEnergy:
    def test_two_point_single_term(self):
        c = PointConfiguration(np.array([[0.0], [0.25]]),
                               np.array([1.0, 0.5]), 1)
        want = (1.0 + 40.0 * math.log(4.0)) / 40.0
        assert config_energy(c, P40) == pytest.approx(want, rel=1e-14)

    def test_three_point_brute_force(self, mp_config_log_energy):
        rng = np.random.default_rng(3)
        pts, kap = random_configuration(rng, 3)
        c = PointConfiguration(pts, kap, 1)
        want = float(mp_config_log_energy(pts, kap, 40.0, 1, 1.0, 2.0))
        assert config_energy(c, P40) == pytest.approx(want, rel=1e-12)

    def test_beta_monotonicity_strict(self):
        # strict decrease is representable in float64 only while the bracket
        # term a^(-s/2d) stays above the rounding floor of the distance term,
        # so keep brackets <= ~3 (points in [0,1], kappa <= 1, beta <= 2)
        rng = np.random.default_rng(5)
        for _ in range(120):
            n = int(rng.integers(3, 12))
            pts, kap = random_configuration(rng, n, low=0.0, high=1.0)
            kap = np.minimum(kap, 1.0)
            c = PointConfiguration(pts, kap, 1)
            lo = rng.uniform(0.05, 1.0)
            betas = (lo, lo + rng.uniform(0.1, 0.5), lo + 1.0)
            values = [config_energy(c, RieszParams(s=40.0, d=1, beta=b))
                      for b in betas]
            assert values[0] > values[1] > values[2]

    def test_beta_monotonicity_wide_regime(self):
        # far outside the representable band the decrease may tie out to
        # equality in float64, never increase
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(3, 10))
            pts, kap = random_configuration(rng, n)
            c = PointConfiguration(pts, kap, 1)
            betas = np.sort(rng.uniform(0.1, 8.0, size=3))
            values = [config_energy(c, RieszParams(s=40.0, d=1, beta=b))
                      for b in betas]
            assert values[0] >= values[1] >= values[2]

    def test_too_few_points(self):
        c = PointConfiguration(np.array([[0.0]]), np.array([1.0]), 1)
        with pytest.raises(ValueError,
                           match="config_energy requires at least two points"):
            config_energy(c, P40)


class TestMinSeparation:
    def test_line_inspection(self):
        c = PointConfiguration(np.array([[0.0], [0.3], [1.0]]),
                               np.ones(3), 1)
        assert min_separation(c) == pytest.approx(0.3)

    def test_pythagorean(self):
        c = PointConfiguration(np.array([[0.0, 0.0], [3.0, 4.0]]),
                               np.ones(2), 2)
        assert min_separation(c) == pytest.approx(5.0)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(9)
        pts, kap = random_configuration(rng, 50, d=2)
        c = PointConfiguration(pts, kap, 2)
        best = np.inf
        for i in range(50):
            for j in range(i + 1, 50):
                best = min(best, float(np.linalg.norm(pts[i] - pts[j])))
        assert min_separation(c) == pytest.approx(best, rel=1e-14)

    def test_scales_instead_of_squaring(self):
        # a 3-4-5 pair 5e-160 apart, whose squared distance underflows, and
        # the same points scaled up to where pdist is exact
        pts = np.array([[0.0, 0.0], [3e-160, 4e-160], [1.0, 1.0]])
        c = PointConfiguration(pts, np.ones(3), 2)
        assert min_separation(c) == pytest.approx(5e-160, rel=1e-15)
        big = PointConfiguration(pts * 1e155, np.ones(3), 2)
        assert min_separation(big) == pytest.approx(5e-5, rel=1e-15)

    def test_too_few_points(self):
        c = PointConfiguration(np.array([[0.0]]), np.array([1.0]), 1)
        with pytest.raises(ValueError,
                           match="min_separation requires at least two points"):
            min_separation(c)


class TestCoveringRadius:
    def test_two_point_cover_of_unit_interval(self):
        c = PointConfiguration(np.array([[0.25], [0.75]]), np.ones(2), 1)
        grid = np.linspace(0, 1, 1001)[:, None]
        assert covering_radius(c, grid) == pytest.approx(0.25)

    def test_self_cover_is_zero(self):
        pts = np.array([[0.1], [0.5], [0.9]])
        c = PointConfiguration(pts, np.ones(3), 1)
        assert covering_radius(c, pts) == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(13)
        pts, kap = random_configuration(rng, 12, d=2)
        ref = rng.uniform(0, 3, size=(40, 2))
        c = PointConfiguration(pts, kap, 2)
        want = max(min(np.linalg.norm(r - x) for x in pts) for r in ref)
        assert covering_radius(c, ref) == pytest.approx(want, rel=1e-14)

    def test_errors(self):
        c = PointConfiguration(np.array([[0.1], [0.9]]), np.ones(2), 1)
        with pytest.raises(ValueError, match="reference set is empty"):
            covering_radius(c, np.empty((0, 1)))
        with pytest.raises(ValueError,
                           match="reference dimension 2 != configuration dimension 1"):
            covering_radius(c, np.zeros((4, 2)))


class TestUniformityStatistic:
    def test_perfect_quantile_placement(self):
        n = 25
        u = np.arange(1, n + 1) / (n + 1)
        c = PointConfiguration(u[:, None], np.ones(n), 1)
        assert uniformity_statistic(c, lambda x: x) <= 1.0 / (n + 1) + 1e-12

    def test_degenerate_mass_at_extreme_quantile(self):
        # an atom carrying all mass at an extreme quantile: KS >= 1 - 1/n
        n = 10
        # coincident points are rejected by PointConfiguration, so spread
        # them by a hair far in the lower tail
        pts = (-5.0 + 1e-9 * np.arange(n))[:, None]
        c = PointConfiguration(pts, np.ones(n), 1)
        assert uniformity_statistic(c, ndtr) >= 1.0 - 1.0 / n

    def test_matches_scipy(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(64)
        c = PointConfiguration(x[:, None], np.ones(64), 1)
        want = kstest(x, ndtr).statistic
        assert uniformity_statistic(c, ndtr) == pytest.approx(want, rel=1e-12)

    def test_dimension_guard(self):
        c = PointConfiguration(np.array([[0.0, 0.0], [1.0, 1.0]]),
                               np.ones(2), 2)
        with pytest.raises(ValueError,
                           match="uniformity_statistic is defined for d == 1"):
            uniformity_statistic(c, lambda x: x)


class TestDensityOracle:
    def test_kappa_floor_normalization(self):
        oracle = DensityOracle.gaussian(0.0, 1.0, 5.0)
        grid = np.linspace(-5, 5, 1024)[:, None]
        kap = oracle.kappa(grid)
        assert kap.min() == pytest.approx(1e-3)
        # kappa grows like the negative log-density up to the shared offset
        assert oracle.kappa(np.array([3.0])) == pytest.approx(
            oracle.kappa(np.array([0.0])) + 4.5, abs=1e-4)

    def test_uniform_kappa_constant(self):
        oracle = DensityOracle.uniform_box([0.0], [2.0])
        vals = oracle.kappa(np.array([[0.1], [1.0], [1.9]]))
        assert np.allclose(vals, 1e-3)

    def test_diameter(self):
        oracle = DensityOracle.uniform_box([0.0, 0.0], [3.0, 4.0])
        assert oracle.diameter == pytest.approx(5.0)


class TestPointConfiguration:
    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateDistance):
            PointConfiguration(np.array([[0.5], [0.5]]), np.ones(2), 1)

    @pytest.mark.parametrize("pts", [
        [[0.0], [-0.0]], [[3.0], [1.0], [3.0]],
        [[0.0, 2.0], [-0.0, 2.0]], [[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]]])
    def test_equal_rows_rejected_in_any_order(self, pts):
        pts = np.array(pts)
        with pytest.raises(DegenerateDistance):
            PointConfiguration(pts, np.ones(pts.shape[0]), pts.shape[1])

    @pytest.mark.parametrize("d", [1, 2])
    def test_distinct_points_with_underflowing_distance_accepted(self, d):
        # the squared distance 1.37e-164^2 underflows to 0, the points differ
        pts = np.zeros((3, d))
        pts[1, 0], pts[2, -1] = 1.37e-164, -1.0
        c = PointConfiguration(pts, np.ones(3), d)
        assert c.n == 3
        assert min_separation(c) == 1.37e-164

    def test_kappa_length_mismatch(self):
        with pytest.raises(ValueError):
            PointConfiguration(np.array([[0.0], [1.0]]), np.ones(3), 1)

    def test_from_points(self):
        oracle = DensityOracle.uniform_box([0.0], [1.0])
        c = PointConfiguration.from_points([0.2, 0.8], oracle)
        assert c.n == 2 and c.dim == 1
        assert np.allclose(c.kappa_values, 1e-3)
