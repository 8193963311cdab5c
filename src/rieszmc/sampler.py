"""Sequential one-point-at-a-time greedy generation of weighted Riesz configurations.

The generator places points one at a time: candidates are drawn uniformly
over the oracle's box, scored by the incremental criterion
sum_i w(x_i, c) / ||x_i - c||^s in the log domain, and the best candidate is
screened by a distance/ratio acceptance rule before it joins the
configuration.  Candidate scoring consumes no randomness; the random stream
is owned by the generation loop alone.

Scoring is an exact branch-and-bound.  Each candidate is first scored
against only the few points next to it in first-coordinate order.  Every
pair term is a real log potential, so the log-sum-exp over any subset of a
candidate's terms is at most the log-sum-exp over all of them: the window
score is a lower bound on the full score, in any dimension and for any
alpha, and an invalid pair in the window makes the candidate invalid.  The
candidates with the smallest bounds are scored in full; the best of those
is a threshold, and only candidates whose bound does not exceed it can be
the argmin, so only those are scored in full as well.  At s = 40 the
nearest neighbours dominate the potential, the bound is tight, and about
one full row is scored per step instead of candidate_count rows.  Full
scores come from the same row arithmetic as an unpruned pass, so the
argmin, its score and every generated configuration are unchanged bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.special import logsumexp

from .energy import (
    DensityOracle,
    PointConfiguration,
    RieszParams,
    log_pair_terms,
    min_separation,
    pair_log_energies,
)
from .errors import (
    BudgetExhausted,
    DegenerateDensity,
    DimensionUnsupported,
    NoValidCandidate,
    OriginReference,
)


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs of the greedy generator.

    candidate_count is the size of the uniform candidate pool per step,
    max_retries the cap on redraws, and seed fixes the random stream.
    """

    n_points: int
    candidate_count: int = 512
    max_retries: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        if self.candidate_count < 8:
            raise ValueError("candidate_count must be at least 8")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")


@dataclass
class GenerationReport:
    """Output of generate_configuration."""

    configuration: PointConfiguration
    rejected_candidates: int
    final_min_separation: float
    energy_trace: np.ndarray


# Points of the quadrature grid of initial_point.
_GRID_RESOLUTION = 1001


def initial_point(oracle: DensityOracle) -> np.ndarray:
    """Grid argmax of the partial expectation E(x) = int_0^x t f(t) dt.

    Trapezoidal quadrature on a uniform grid over the oracle's box; ties are
    broken toward the smaller coordinate.  Only defined for d == 1 (the
    additive constant int_0^lo does not move the argmax, so integration
    starts at the lower box edge).
    """
    if oracle.dim != 1:
        raise DimensionUnsupported("initial_point is defined for d == 1")
    grid = np.linspace(oracle.domain_low[0], oracle.domain_high[0],
                       _GRID_RESOLUTION)
    logf = np.asarray(oracle.log_density(grid[:, None]), dtype=float)
    f = np.exp(logf)
    if not np.any(f > 0.0):
        raise DegenerateDensity("density is zero on the whole grid")
    partial = cumulative_trapezoid(grid * f, grid, initial=0.0)
    return np.array([grid[int(np.argmax(partial))]])


# Neighbours on each side of a candidate, in first-coordinate order, whose
# pair terms make up the candidate's lower bound.
_K = 2
# Candidates with the smallest bounds whose full rows set the pruning
# threshold.
_N_THRESHOLD = 4
# Bounds, threshold and full scores differ from exact arithmetic only by
# rounding (log-sum-exps taken in different orders, distances recomputed);
# the slack is orders of magnitude above that and only ever keeps more
# candidates, so it costs time, never exactness.
_PRUNE_SLACK = 1e-9


def _score_candidates(points: np.ndarray, kappas: np.ndarray,
                      cands: np.ndarray, cand_kappas: np.ndarray,
                      p: RieszParams) -> tuple[int, float]:
    """Index and score of the first candidate with the smallest incremental
    log criterion, or (-1, inf) when no candidate is valid.

    Equal to the argmin of a full scoring of every candidate: candidates
    whose window lower bound exceeds a threshold taken from full rows cannot
    be the argmin and are never scored in full.
    """
    m, k = cands.shape[0], points.shape[0]
    w = min(2 * _K, k)
    order = np.argsort(points[:, 0])
    pos = np.searchsorted(points[order, 0], cands[:, 0])
    nb = order[np.clip(pos - _K, 0, k - w)[:, None] + np.arange(w)]
    r = np.sqrt(((cands[:, None, :] - points[nb]) ** 2).sum(axis=2))
    window_e, _ = log_pair_terms(r, cand_kappas[:, None] * kappas[nb], p)
    bound = np.logaddexp.reduce(window_e, axis=1)

    first = (np.argpartition(bound, _N_THRESHOLD - 1)[:_N_THRESHOLD]
             if m > _N_THRESHOLD else slice(None))
    first_e, _ = pair_log_energies(cands[first], cand_kappas[first],
                                   points, kappas, p)
    threshold = np.logaddexp.reduce(first_e, axis=1).min()
    keep = np.flatnonzero(
        bound <= threshold + _PRUNE_SLACK * (1.0 + abs(threshold)))

    log_e, valid = pair_log_energies(cands[keep], cand_kappas[keep],
                                     points, kappas, p)
    ok = valid.all(axis=1)
    if not np.any(ok):
        return -1, np.inf
    scores = np.full(m, np.inf)
    scores[keep[ok]] = logsumexp(log_e[ok], axis=1)
    best = int(np.argmin(scores))
    return best, float(scores[best])


def _propose_scored(points: np.ndarray, kappas: np.ndarray, oracle: DensityOracle,
                    p: RieszParams, cfg: SamplerConfig, rng: np.random.Generator,
                    candidates=None) -> tuple[np.ndarray, float]:
    if points.shape[0] < 1:
        raise ValueError("configuration must be non-empty")
    fixed_pool = candidates is not None
    retries = 1 if fixed_pool else cfg.max_retries
    for _ in range(retries):
        if fixed_pool:
            cands = np.atleast_2d(np.asarray(candidates, dtype=float))
            if cands.shape[1] != oracle.dim:
                cands = cands.reshape(-1, oracle.dim)
        else:
            cands = rng.uniform(oracle.domain_low, oracle.domain_high,
                                size=(cfg.candidate_count, oracle.dim))
        cand_kappas = np.atleast_1d(oracle.kappa(cands))
        best_idx, best_score = _score_candidates(points, kappas, cands,
                                                 cand_kappas, p)
        if best_idx >= 0:
            return cands[best_idx].copy(), best_score
    raise NoValidCandidate(
        f"all candidates violated eps_dist after {retries} redraw(s)"
    )


def propose_next_point(c: PointConfiguration, oracle: DensityOracle,
                       p: RieszParams, cfg: SamplerConfig,
                       rng: np.random.Generator, candidates=None) -> np.ndarray:
    """Candidate minimizing the incremental criterion over a candidate pool.

    Candidates are drawn uniformly over the oracle's box unless an explicit
    pool is supplied, in which case the argmin over that pool is returned
    (ties break toward the first index).
    """
    point, _ = _propose_scored(c.points, c.kappa_values, oracle, p, cfg, rng,
                               candidates)
    return point


def accept_candidate(x_new, x_last, r_min_current: float,
                     rng: np.random.Generator,
                     domain_diameter: float | None = None) -> bool:
    """Distance screen followed by the ratio acceptance rule.

    Rejects outright when ||x_new - x_last|| < r_min_current; otherwise draws
    u ~ U(0,1) and accepts when ||x_new - x_last|| / ||x_last|| >= u.  When
    x_last sits at the origin the denominator is replaced by
    ``domain_diameter``.
    """
    x_new = np.atleast_1d(np.asarray(x_new, dtype=float))
    x_last = np.atleast_1d(np.asarray(x_last, dtype=float))
    dist = float(np.linalg.norm(x_new - x_last))
    if dist < r_min_current:
        return False
    denom = float(np.linalg.norm(x_last))
    if denom == 0.0:
        if domain_diameter is None:
            raise OriginReference("x_last at origin and no domain diameter given")
        denom = float(domain_diameter)
    return dist / denom >= rng.random()


def generate_configuration(oracle: DensityOracle, p: RieszParams,
                           cfg: SamplerConfig, initial=None) -> GenerationReport:
    """Run the full greedy loop and return the configuration plus bookkeeping.

    Deterministic given cfg.seed.  ``initial`` overrides the quadrature-based
    initial point (required for d > 1).  Raises BudgetExhausted when
    max_retries * n_points candidate draws cannot place every point.

    The distance gate passed to accept_candidate is half the running minimum
    separation: an exact farthest-point insertion sits at distance >= r_min/2
    from every existing point (packing-covering inequality), so the gate
    screens stragglers without deadlocking the fill.
    """
    if p.d != oracle.dim:
        raise DimensionUnsupported(
            f"params dimension {p.d} != oracle dimension {oracle.dim}"
        )
    rng = np.random.default_rng(cfg.seed)
    if initial is None:
        x0 = initial_point(oracle)
    else:
        x0 = np.atleast_1d(np.asarray(initial, dtype=float))
    n, d = cfg.n_points, oracle.dim
    points = np.empty((n, d))
    kappas = np.empty(n)
    points[0] = x0
    kappas[0] = oracle.kappa(x0)
    diameter = oracle.diameter
    rejected = 0
    trace = np.empty(n - 1)
    total_log_energy = -np.inf
    r_min = np.inf
    budget = cfg.max_retries * cfg.n_points
    attempts = 0
    k = 1
    while k < n:
        placed = False
        while attempts < budget:
            attempts += 1
            try:
                cand, cand_score = _propose_scored(points[:k], kappas[:k],
                                                   oracle, p, cfg, rng)
            except NoValidCandidate:
                rejected += cfg.candidate_count
                continue
            threshold = 0.0 if k < 2 else 0.5 * r_min
            if accept_candidate(cand, points[k - 1], threshold, rng, diameter):
                dists = np.linalg.norm(points[:k] - cand, axis=1)
                r_min = min(r_min, float(dists.min()))
                total_log_energy = np.logaddexp(total_log_energy, cand_score)
                trace[k - 1] = total_log_energy / p.s
                points[k] = cand
                kappas[k] = oracle.kappa(cand)
                k += 1
                placed = True
                break
            rejected += 1
        if not placed:
            raise BudgetExhausted(
                f"{budget} candidate draws were not enough to place "
                f"{cfg.n_points} points (placed {k})"
            )
    config = PointConfiguration(points, kappas, d)
    return GenerationReport(
        configuration=config,
        rejected_candidates=rejected,
        final_min_separation=float(r_min),
        energy_trace=trace,
    )


def quantile_mapped_configuration(target_oracle: DensityOracle, cdf_fn,
                                  quantile_fn, p: RieszParams,
                                  cfg: SamplerConfig) -> GenerationReport:
    """Generate in probability space and map through the target quantile function.

    A configuration for the uniform density on [F(lo), F(hi)] is generated
    with the greedy energy loop, then mapped through ``quantile_fn`` so the
    mapped points follow the target's quantiles.  kappa values of the mapped
    configuration come from ``target_oracle``; the energy trace is the one
    recorded in probability space.
    """
    if target_oracle.dim != 1:
        raise DimensionUnsupported("quantile mapping is defined for d == 1")
    u_lo = float(cdf_fn(target_oracle.domain_low[0]))
    u_hi = float(cdf_fn(target_oracle.domain_high[0]))
    u_oracle = DensityOracle.uniform_box([u_lo], [u_hi])
    u_params = replace(p, d=1)
    report = generate_configuration(u_oracle, u_params, cfg)
    mapped = np.asarray(quantile_fn(report.configuration.points[:, 0]),
                        dtype=float).reshape(-1, 1)
    config = PointConfiguration(mapped, target_oracle.kappa(mapped), 1)
    return GenerationReport(
        configuration=config,
        rejected_candidates=report.rejected_candidates,
        final_min_separation=min_separation(config),
        energy_trace=report.energy_trace,
    )
