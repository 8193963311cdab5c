"""Greedy generation loop: initial point, proposals, acceptance, full runs."""

import hashlib

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.special import logsumexp, ndtr, ndtri

from rieszmc import (
    DensityOracle,
    PointConfiguration,
    RieszParams,
    SamplerConfig,
    accept_candidate,
    config_energy,
    covering_radius,
    generate_configuration,
    initial_point,
    min_separation,
    pair_log_energies,
    propose_next_point,
    quantile_mapped_configuration,
    uniformity_statistic,
)
from rieszmc.errors import BudgetExhausted, DegenerateDensity, NumericalError
from rieszmc.sampler import (
    _CELLS_PER_POINT,
    _GRID_RESOLUTION,
    _Cells,
    _score_candidates,
)

P40 = RieszParams(s=40.0, d=1, alpha=1.0, beta=2.0)
UNIFORM01 = DensityOracle.uniform_box([0.0], [1.0])


class TestInitialPoint:
    def test_uniform_density_maximizes_at_upper_edge(self):
        x0 = initial_point(UNIFORM01)
        assert x0[0] == pytest.approx(1.0)

    def test_narrow_gaussian_saturates_past_the_mass(self):
        oracle = DensityOracle.gaussian(0.5, 0.1, 4.9)
        oracle = DensityOracle(oracle.log_density, [0.0], [1.0])
        x0 = initial_point(oracle)
        # partial expectation keeps growing wherever t f(t) > 0, so the
        # argmax sits within one grid cell of the upper edge
        assert x0[0] >= 1.0 - 1.0 / (_GRID_RESOLUTION - 1) - 1e-12
        grid = np.linspace(0.0, 1.0, _GRID_RESOLUTION)
        f = np.exp(oracle.log_density(grid[:, None]))
        oracle_partial = cumulative_trapezoid(grid * f, grid, initial=0.0)
        assert x0[0] == grid[np.argmax(oracle_partial)]

    def test_truncated_normal_matches_quadrature_oracle(self):
        oracle = DensityOracle.gaussian(0.0, 1.0, 5.0)
        x0 = initial_point(oracle)
        grid = np.linspace(-5.0, 5.0, _GRID_RESOLUTION)
        f = np.exp(oracle.log_density(grid[:, None]))
        partial = cumulative_trapezoid(grid * f, grid, initial=0.0)
        assert x0[0] == grid[np.argmax(partial)]

    def test_degenerate_density(self):
        # an all -inf log-density is rejected at construction
        with pytest.raises(DegenerateDensity):
            DensityOracle(lambda x: np.full(np.atleast_2d(x).shape[0],
                                            -np.inf), [0.0], [1.0])
        # a finite log-density whose exp underflows to zero on the whole
        # grid trips the quadrature guard instead
        dead = DensityOracle(lambda x: np.full(np.atleast_2d(x).shape[0],
                                               -1e9), [0.0], [1.0])
        with pytest.raises(DegenerateDensity):
            initial_point(dead)

    def test_dimension_guard(self):
        box = DensityOracle.uniform_box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError,
                           match="initial_point is defined for d == 1"):
            initial_point(box)


class TestProposeNextPoint:
    def test_symmetric_candidates_tie_breaks_first(self):
        c = PointConfiguration.from_points([0.5], UNIFORM01)
        rng = np.random.default_rng(0)
        cfg = SamplerConfig(n_points=2)
        got = propose_next_point(c, UNIFORM01, P40, cfg, rng,
                                 candidates=[[0.1], [0.9]])
        assert got[0] == 0.1

    def test_farther_candidate_wins(self):
        c = PointConfiguration.from_points([0.0], UNIFORM01)
        rng = np.random.default_rng(0)
        cfg = SamplerConfig(n_points=2)
        got = propose_next_point(c, UNIFORM01, P40, cfg, rng,
                                 candidates=[[0.1], [0.5]])
        assert got[0] == 0.5

    def test_matches_bruteforce_argmin_on_grid(self):
        from rieszmc import log_pair_energy
        rng = np.random.default_rng(23)
        grid = np.linspace(0.0, 1.0, 101)[:, None]
        cfg = SamplerConfig(n_points=2)
        for _ in range(25):
            pts = np.sort(rng.uniform(0, 1, size=5))
            while np.diff(pts).min() < 1e-3:
                pts = np.sort(rng.uniform(0, 1, size=5))
            c = PointConfiguration.from_points(pts, UNIFORM01)
            got = propose_next_point(c, UNIFORM01, P40, cfg, rng,
                                     candidates=grid)
            # independent brute force: scalar op, explicit loops
            best_idx, best_val = None, np.inf
            for gi, cand in enumerate(grid):
                if np.abs(pts - cand[0]).min() < P40.eps_dist:
                    continue
                total = 0.0
                r_terms = [log_pair_energy(cand, [x], UNIFORM01.kappa(cand),
                                           float(UNIFORM01.kappa(np.array([x]))),
                                           P40)
                           for x in pts]
                m = max(r_terms)
                total = m + np.log(np.sum(np.exp(np.array(r_terms) - m)))
                if total < best_val:
                    best_idx, best_val = gi, total
            assert got[0] == grid[best_idx, 0]

    def test_no_valid_candidate(self):
        oracle = DensityOracle.uniform_box([0.0], [1.0])
        c = PointConfiguration.from_points([0.5], oracle)
        p = RieszParams(s=40.0, d=1, eps_dist=2.0)  # everything too close
        rng = np.random.default_rng(0)
        cfg = SamplerConfig(n_points=2, max_retries=2)
        with pytest.raises(NumericalError,
                           match="all candidates violated eps_dist"):
            propose_next_point(c, oracle, p, cfg, rng)


def _full_scoring_argmin(points, kappas, cands, cand_kappas, p):
    """Reference: score every candidate against every point, then argmin."""
    log_e, valid = pair_log_energies(cands, cand_kappas, points, kappas, p)
    ok = valid.all(axis=1)
    if not np.any(ok):
        return -1, np.inf
    scores = np.full(cands.shape[0], np.inf)
    scores[ok] = logsumexp(log_e[ok], axis=1)
    best = int(np.argmin(scores))
    return best, float(scores[best])


def _pools():
    """(points, kappas, candidates, candidate kappas, params) cases."""
    rng = np.random.default_rng(31)
    for d, params in ((1, P40), (2, RieszParams(s=10.0, d=2)),
                      (1, RieszParams(s=40.0, d=1, alpha=-1.0)),
                      (2, RieszParams(s=10.0, d=2, alpha=-1.0))):
        for k in (1, 2, 3, 4, 5, 30, 200):
            for _ in range(4):
                pts = rng.uniform(0.0, 1.0, size=(k, d))
                cands = rng.uniform(0.0, 1.0, size=(64, d))
                yield (pts, rng.uniform(1e-3, 3.0, k), cands,
                       rng.uniform(1e-3, 3.0, 64), params)
    # candidates within eps_dist of a point, and one exactly on a point
    near = RieszParams(s=40.0, d=1, eps_dist=1e-3)
    pts = rng.uniform(0.0, 1.0, size=(40, 1))
    cands = np.vstack([pts[:8] + 5e-4, pts[8:10],
                       rng.uniform(0.0, 1.0, size=(30, 1))])
    yield pts, np.ones(40), cands, np.ones(cands.shape[0]), near
    # every candidate invalid
    yield (pts, np.ones(40), pts[:8] + 5e-4, np.ones(8), near)
    # exact ties: mirror-image candidates, and a pool holding each twice
    yield (np.array([[0.5]]), np.ones(1), np.array([[0.25], [0.75]]),
           np.ones(2), P40)
    pts = rng.uniform(0.0, 1.0, size=(50, 1))
    cands = rng.uniform(0.0, 1.0, size=(32, 1))
    kap = rng.uniform(1e-3, 3.0, 32)
    yield (pts, rng.uniform(1e-3, 3.0, 50), np.vstack([cands, cands]),
           np.concatenate([kap, kap]), P40)


def _cell_pools():
    """Pools that place windows far from each candidate's rank, with the
    box, as (points, kappas, candidates, candidate kappas, params, box)."""
    rng = np.random.default_rng(37)
    unit = DensityOracle.uniform_box([0.0], [1.0])
    # a clump of points inside one cell, candidates in and around it
    clump = np.concatenate((0.5 + 1e-5 * rng.random(20), rng.random(10)))
    cands = np.concatenate((0.5 + 2e-5 * rng.random(24), rng.random(40)))
    yield (clump[:, None], rng.uniform(1e-3, 3.0, 30), cands[:, None],
           rng.uniform(1e-3, 3.0, 64), P40, unit)
    # candidates on cell boundaries, at and outside the box's edges, with a
    # point at the upper edge (where the uniform box's initial point sits)
    pts = np.concatenate(([1.0], rng.random(11)))
    edges = np.arange(_CELLS_PER_POINT * 12 + 1) / (_CELLS_PER_POINT * 12)
    cands = np.concatenate((edges, [-3.0, -1e-12, 1.0 + 1e-12, 7.5]))
    for params in (P40, RieszParams(s=40.0, d=1, alpha=-1.0)):
        yield (pts[:, None], rng.uniform(1e-3, 3.0, 12), cands[:, None],
               rng.uniform(1e-3, 3.0, cands.shape[0]), params, unit)
    # a shifted box, with points and candidates on both sides of it
    box = DensityOracle.uniform_box([-5.0], [5.0])
    pts = rng.uniform(-7.0, 7.0, size=(40, 1))
    cands = rng.uniform(-8.0, 8.0, size=(64, 1))
    yield (pts, rng.uniform(1e-3, 3.0, 40), cands,
           rng.uniform(1e-3, 3.0, 64), P40, box)
    # d = 2: each first-coordinate cell holds many points
    square = DensityOracle.uniform_box([0.0, 0.0], [1.0, 1.0])
    for params in (RieszParams(s=10.0, d=2),
                   RieszParams(s=10.0, d=2, alpha=-1.0)):
        pts = np.column_stack((rng.integers(0, 4, 200) / 4 + 0.01,
                               rng.random(200)))
        cands = rng.uniform(0.0, 1.0, size=(64, 2))
        yield (pts, rng.uniform(1e-3, 3.0, 200), cands,
               rng.uniform(1e-3, 3.0, 64), params, square)


def _cell_table_scores(pts, kap, cands, cand_kap, params, box, n_cells):
    low = box.domain_low[0]
    cells = _Cells(low, box.domain_high[0] - low, n_cells, pts[:, 0])
    return _score_candidates(pts, kap, np.argsort(pts[:, 0]), cands,
                             cand_kap, params, cells)


def _unit_box(d):
    return DensityOracle.uniform_box([0.0] * d, [1.0] * d)


class TestScoreCandidates:
    def test_pruned_argmin_matches_full_scoring(self):
        # one cell puts every window at the lowest points, two cells per
        # point leave several points in a cell, and the table of a
        # generation run nearly centres each window
        n_cases = 0
        for pts, kap, cands, cand_kap, params in _pools():
            want = _full_scoring_argmin(pts, kap, cands, cand_kap, params)
            for n_cells in (1, 2 * pts.shape[0],
                            _CELLS_PER_POINT * pts.shape[0]):
                got = _cell_table_scores(pts, kap, cands, cand_kap, params,
                                         _unit_box(pts.shape[1]), n_cells)
                assert got == want
            n_cases += 1
        assert n_cases == 116

    def test_cell_table_start_matches_full_scoring(self):
        n_cases = 0
        for pts, kap, cands, cand_kap, params, box in _cell_pools():
            want = _full_scoring_argmin(pts, kap, cands, cand_kap, params)
            assert want[0] >= 0
            for n_cells in (1, 4, _CELLS_PER_POINT * pts.shape[0]):
                assert _cell_table_scores(pts, kap, cands, cand_kap, params,
                                          box, n_cells) == want
            n_cases += 1
        assert n_cases == 6

    def test_cells_clip_to_the_table(self):
        cells = _Cells(-5.0, 10.0, 10, ())
        x = np.array([-np.inf, -6.0, -5.0, -4.0, 0.0, 4.999, 5.0, 9.0,
                      np.inf, np.nan])
        assert cells.cell(x).tolist() == [0, 0, 0, 1, 5, 9, 9, 9, 9, 0]
        assert cells.cell(5.0) == 9

    def test_ties_go_to_the_first_index(self):
        pts, kap = np.array([[0.5]]), np.ones(1)
        assert _cell_table_scores(pts, kap, np.array([[0.75], [0.25]]),
                                  np.ones(2), P40, UNIFORM01, 8)[0] == 0
        cands = np.array([[0.1], [0.3], [0.1], [0.3]])
        pts = np.array([[0.9], [0.95]])
        idx, _ = _cell_table_scores(pts, np.ones(2), cands, np.ones(4), P40,
                                    UNIFORM01, 16)
        assert idx == 0


# SHA-256 of points, kappa values, energy trace and rejected-candidate count
# of seeded runs, recorded with a full scoring of every candidate (x86-64,
# numpy 2.4, scipy 1.17).  Pruning must not move a single bit.
_PINNED = {
    "direct-normal-300": "33b78e0420ea42ad9a1d81b7f32ea94dca11f4f2b5cce46130964b06519d5b03",
    "quantile-normal-300": "b1c8048c37afb597e3a33c0eb5f467d32df3eb32034454f7d1d8a5cb6d302dcb",
    "box-2d-200": "3f3b674c0b9d437a2a4d34611abcb6a4dda881ed9b949561047019639f508d3f",
    "alpha-minus-one-60": "c90c2f33c00476bd1c3b5ae75cc837e0d4388b963f0f9e4f462b4cdcda954575",
}


def _pinned_run(name):
    normal = DensityOracle.gaussian(0.0, 1.0, 5.0)
    if name == "direct-normal-300":
        return generate_configuration(normal, P40,
                                      SamplerConfig(n_points=300, seed=1))
    if name == "quantile-normal-300":
        return quantile_mapped_configuration(
            normal, ndtr, ndtri, P40, SamplerConfig(n_points=300, seed=1))
    if name == "box-2d-200":
        return generate_configuration(
            DensityOracle.uniform_box([0.0, 0.0], [1.0, 1.0]),
            RieszParams(s=10.0, d=2), SamplerConfig(n_points=200, seed=5),
            initial=[0.3, 0.6])
    return generate_configuration(
        UNIFORM01, RieszParams(s=40.0, d=1, alpha=-1.0, beta=2.0),
        SamplerConfig(n_points=60, seed=2))


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_seeded_generation_is_pinned(name):
    report = _pinned_run(name)
    h = hashlib.sha256()
    for a in (report.configuration.points, report.configuration.kappa_values,
              report.energy_trace,
              np.array([report.rejected_candidates], dtype=np.int64)):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == _PINNED[name]


class TestAcceptCandidate:
    def test_ratio_at_least_one_always_accepts(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert accept_candidate([2.1], [1.0], 0.0, rng)

    def test_distance_below_threshold_always_rejects(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert not accept_candidate([1.05], [1.0], 0.2, rng)

    def test_half_ratio_acceptance_frequency(self):
        rng = np.random.default_rng(2)
        hits = sum(accept_candidate([1.5], [1.0], 0.0, rng)
                   for _ in range(100_000))
        assert hits / 100_000 == pytest.approx(0.5, abs=0.01)

    def test_origin_reference(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError,
                           match="x_last at origin and no domain diameter given"):
            accept_candidate([0.5], [0.0], 0.0, rng)
        # with the domain diameter substituted, ratio 0.5/1.0 applies
        hits = sum(accept_candidate([0.5], [0.0], 0.0, rng,
                                    domain_diameter=1.0)
                   for _ in range(50_000))
        assert hits / 50_000 == pytest.approx(0.5, abs=0.015)


class TestGenerateConfiguration:
    def test_two_point_run_spreads_to_the_edges(self):
        cfg = SamplerConfig(n_points=2, seed=0)
        report = generate_configuration(UNIFORM01, P40, cfg)
        pts = np.sort(report.configuration.points[:, 0])
        assert report.final_min_separation > 0.1
        # brute-force optimum over a 101x101 grid is the pair {0, 1}
        assert pts[0] == pytest.approx(0.0, abs=0.02)
        assert pts[1] == pytest.approx(1.0, abs=0.02)

    def test_determinism(self):
        cfg = SamplerConfig(n_points=25, seed=42)
        a = generate_configuration(UNIFORM01, P40, cfg)
        b = generate_configuration(UNIFORM01, P40, cfg)
        assert np.array_equal(a.configuration.points, b.configuration.points)
        assert np.array_equal(a.energy_trace, b.energy_trace)
        assert a.rejected_candidates == b.rejected_candidates
        assert a.final_min_separation == b.final_min_separation

    def test_scoring_sees_the_points_in_first_coordinate_order(
            self, monkeypatch):
        # a stale order would leave every result exact (the window stays a
        # subset of each candidate's terms) but make the bound useless
        sizes = []

        def checked(points, kappas, order, *rest):
            assert np.array_equal(order, np.argsort(points[:, 0]))
            sizes.append(points.shape[0])
            return _score_candidates(points, kappas, order, *rest)

        monkeypatch.setattr("rieszmc.sampler._score_candidates", checked)
        generate_configuration(UNIFORM01, P40,
                               SamplerConfig(n_points=40, seed=3))
        assert max(sizes) == 39

    @pytest.mark.parametrize("case", ["uniform", "normal", "square"])
    def test_cell_table_counts_the_placed_points(self, monkeypatch, case):
        # below[c] must count the placed points in the cells under c after
        # every insertion; a stale table keeps results exact but makes the
        # windows miss each candidate's neighbours
        seen = []

        def checked(points, kappas, order, cands, cand_kappas, p, cells):
            counts = np.bincount(cells.cell(points[:, 0]),
                                 minlength=cells.last + 1)
            assert np.array_equal(cells.below,
                                  np.concatenate(([0], counts.cumsum()[:-1])))
            seen.append(points.shape[0])
            return _score_candidates(points, kappas, order, cands,
                                     cand_kappas, p, cells)

        monkeypatch.setattr("rieszmc.sampler._score_candidates", checked)
        if case == "square":
            generate_configuration(
                DensityOracle.uniform_box([0.0, 0.0], [1.0, 1.0]),
                RieszParams(s=10.0, d=2), SamplerConfig(n_points=30, seed=4),
                initial=[1.0, 0.5])
        else:
            oracle = (UNIFORM01 if case == "uniform"
                      else DensityOracle.gaussian(0.0, 1.0, 5.0))
            generate_configuration(oracle, P40,
                                   SamplerConfig(n_points=40, seed=3))
        assert max(seen) == (29 if case == "square" else 39)

    @pytest.mark.parametrize("low,high", [([0.0], [1.0]), ([-5.0], [5.0]),
                                          ([2.867e-7], [0.9999997133]),
                                          ([0.0, 0.0], [1.0, 1.0]),
                                          ([-3.0, 0.1], [2.5, 7.0])])
    def test_candidate_draw_is_generator_uniform(self, monkeypatch, low,
                                                 high):
        # the candidates must be rng.uniform(low, high, size) bit for bit,
        # or every seeded digest moves
        box = DensityOracle.uniform_box(low, high)
        drawn = []

        def record(points, kappas, order, cands, *rest):
            drawn.append(cands)
            return 0, 0.0

        monkeypatch.setattr("rieszmc.sampler._score_candidates", record)
        c = PointConfiguration.from_points([high], box)
        cfg = SamplerConfig(n_points=2, candidate_count=64)
        for seed in range(200):
            propose_next_point(c, box, P40, cfg, np.random.default_rng(seed))
            want = np.random.default_rng(seed).uniform(low, high,
                                                       size=(64, len(low)))
            assert np.array_equal(drawn[-1], want)

    def test_report_invariants(self):
        cfg = SamplerConfig(n_points=30, seed=7)
        report = generate_configuration(UNIFORM01, P40, cfg)
        config = report.configuration
        assert config.n == 30
        assert report.energy_trace.shape[0] == 29
        assert np.all(np.isfinite(report.energy_trace))
        assert report.final_min_separation == pytest.approx(
            min_separation(config))
        assert min_separation(config) >= P40.eps_dist

    def test_energy_trace_matches_config_energy(self):
        cfg = SamplerConfig(n_points=12, seed=11)
        report = generate_configuration(UNIFORM01, P40, cfg)
        want = config_energy(report.configuration, P40)
        assert report.energy_trace[-1] == pytest.approx(want, rel=1e-10)

    def test_budget_exhausted(self):
        # eps_dist so large that after two points no candidate is valid
        p = RieszParams(s=40.0, d=1, eps_dist=0.6)
        cfg = SamplerConfig(n_points=3, max_retries=2, seed=0)
        with pytest.raises(BudgetExhausted):
            generate_configuration(UNIFORM01, p, cfg)

    def test_budget_counts_candidate_pools(self, monkeypatch):
        # after two points no candidate is valid: each attempt scores one
        # pool, so the budget of max_retries * n_points attempts is 192
        # pools, and the message counts them
        pools = []

        def counted(*args):
            pools.append(args[3].shape[0])
            return _score_candidates(*args)

        monkeypatch.setattr("rieszmc.sampler._score_candidates", counted)
        p = RieszParams(s=40.0, d=1, eps_dist=0.6)
        with pytest.raises(BudgetExhausted,
                           match="^192 candidate pools were not enough"):
            generate_configuration(UNIFORM01, p, SamplerConfig(n_points=3))
        assert pools == [512] * 192

    def test_initial_override_supports_2d(self):
        box = DensityOracle.uniform_box([0.0, 0.0], [1.0, 1.0])
        p2 = RieszParams(s=10.0, d=2, beta=2.0)
        cfg = SamplerConfig(n_points=10, seed=5, candidate_count=128)
        report = generate_configuration(box, p2, cfg, initial=[0.5, 0.5])
        assert report.configuration.points.shape == (10, 2)
        assert min_separation(report.configuration) > 0.05

    @pytest.mark.parametrize("initial", [[0.3], [0.3, 0.2, 0.1]])
    def test_initial_of_the_wrong_length_is_rejected(self, initial):
        # [0.3] used to be broadcast to (0.3, 0.3) on the unit square
        box = DensityOracle.uniform_box([0.0, 0.0], [1.0, 1.0])
        cfg = SamplerConfig(n_points=10, seed=5, candidate_count=128)
        with pytest.raises(ValueError, match="2 coordinates"):
            generate_configuration(box, RieszParams(s=10.0, d=2), cfg,
                                   initial=initial)

    def test_separation_product_bounded_below(self):
        # min_separation * n^(1/d + 2/s) stays bounded below as n grows
        products = []
        for n in (20, 50, 100):
            cfg = SamplerConfig(n_points=n, seed=1)
            report = generate_configuration(UNIFORM01, P40, cfg)
            products.append(report.final_min_separation
                            * n ** (1.0 / P40.d + 2.0 / P40.s))
        assert min(products) > 0.5

    def test_covering_radius_decays_with_doubling(self):
        grid = np.linspace(0.0, 1.0, 1000)[:, None]
        radii = []
        for n in (25, 50, 100):
            cfg = SamplerConfig(n_points=n, seed=3)
            report = generate_configuration(UNIFORM01, P40, cfg)
            radii.append(covering_radius(report.configuration, grid))
        assert radii[1] <= radii[0] * 1.05
        assert radii[2] <= radii[1] * 1.05


class TestQuantileMappedConfiguration:
    def test_ks_decreases_with_n(self):
        target = DensityOracle.gaussian(0.0, 1.0, 5.0)
        stats = {}
        for n in (20, 200):
            vals = []
            for seed in range(3):
                rep = quantile_mapped_configuration(
                    target, ndtr, ndtri, P40,
                    SamplerConfig(n_points=n, seed=seed))
                vals.append(uniformity_statistic(rep.configuration, ndtr))
            stats[n] = np.mean(vals)
        assert stats[200] < stats[20]

    def test_two_dimensional_params_are_rejected(self):
        # generation runs on the line; d = 2 used to be replaced by 1
        with pytest.raises(ValueError,
                           match="params dimension 2 != oracle dimension 1"):
            quantile_mapped_configuration(
                DensityOracle.gaussian(0.0, 1.0, 5.0), ndtr, ndtri,
                RieszParams(s=40.0, d=2), SamplerConfig(n_points=20))

    def test_mapped_points_inside_target_box(self):
        target = DensityOracle.gaussian(0.0, 1.0, 5.0)
        rep = quantile_mapped_configuration(target, ndtr, ndtri, P40,
                                            SamplerConfig(n_points=40, seed=2))
        pts = rep.configuration.points[:, 0]
        assert pts.min() >= -5.0 - 1e-9 and pts.max() <= 5.0 + 1e-9
        assert rep.final_min_separation == pytest.approx(
            min_separation(rep.configuration))
