"""Sequential one-point-at-a-time greedy generation of weighted Riesz configurations.

The generator places points one at a time: candidates are drawn uniformly
over the oracle's box, scored by the incremental criterion
sum_i w(x_i, c) / ||x_i - c||^s in the log domain, and the best candidate is
screened by a distance/ratio acceptance rule before it joins the
configuration.  Candidate scoring consumes no randomness; the random stream
is owned by the generation loop alone.

Scoring is an exact branch-and-bound.  Each candidate is first bounded
by the few points next to it in first-coordinate order: the largest of
those pair terms.  Every pair term is a real log potential, and a
log-sum-exp is at least its largest term, so the bound never exceeds the
candidate's full score, in any dimension and for any alpha; an invalid pair
in the window makes the candidate invalid.  The candidates with the
smallest bounds are scored in full; the best of those is a threshold, and
only candidates whose bound does not exceed it can be the argmin, so only
those are scored in full as well, and the threshold rows' scores are
reused.  At s = 40 the nearest neighbour dominates the potential and the
bound is tight: in 1-D the few threshold rows are nearly always the only
rows scored in full, instead of candidate_count rows.  Full scores come
from the same row arithmetic as an unpruned pass, so the argmin, its score
and every generated configuration are unchanged bit for bit.  The
generation loop keeps its points in first-coordinate order as it inserts
them, so scoring sorts nothing, and counts them per equal cell of the box's
first coordinate, where each window starts.  A window off centre still holds
a subset of the candidate's pair terms: the bound stays a lower bound, and
only its tightness depends on where the window sits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    DensityOracle,
    PointConfiguration,
    RieszParams,
    distances,
    log_pair_terms,
    min_separation,
    pair_log_energies,
    row_logsumexp,
)
from .errors import BudgetExhausted, DegenerateDensity, NumericalError


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs of the greedy generator.

    candidate_count is the size of the uniform candidate pool of each
    attempt, max_retries * n_points the budget of attempts (pools) of a
    generation run, and seed fixes the random stream.
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
        raise ValueError("initial_point is defined for d == 1")
    grid = np.linspace(oracle.domain_low[0], oracle.domain_high[0],
                       _GRID_RESOLUTION)
    logf = np.asarray(oracle.log_density(grid[:, None]), dtype=float)
    f = np.exp(logf)
    if not np.any(f > 0.0):
        raise DegenerateDensity("density is zero on the whole grid")
    # scipy's cumulative_trapezoid(grid * f, grid, initial=0)
    tf = grid * f
    partial = np.concatenate(
        ([0.0], np.cumsum(np.diff(grid) * (tf[1:] + tf[:-1]) / 2.0)))
    return np.array([grid[int(np.argmax(partial))]])


# Neighbours on each side of a candidate, in first-coordinate order, whose
# largest pair term is the candidate's lower bound.
_K = 2
# Cells of the first-coordinate table per point of the configuration.
_CELLS_PER_POINT = 8
# Candidates with the smallest bounds whose full rows set the pruning
# threshold.
_N_THRESHOLD = 4
# A window term is computed as the same term of the full row, and a row's
# log-sum-exp is its largest term plus log1p(.) + log(count) >= 0, so bound
# <= score holds in floating point too.  The slack guards against a ufunc
# that rounds differently on another array layout; it only ever keeps more
# candidates, so it costs time, never exactness.
_PRUNE_SLACK = 1e-9


class _Cells:
    """``below[c]``, the values under the c-th of n_cells equal cells of
    [low, low + span]: at most the rank of any value in the cell, read
    without a binary search (Chen & Asau 1974).  Values outside the range,
    and NaN, fall in the end cells."""

    def __init__(self, low: float, span: float, n_cells: int, values):
        self.low, self.per_unit, self.last = low, n_cells / span, n_cells - 1
        cells = self.cell(np.asarray(values, dtype=float)) + 1
        self.below = np.bincount(cells, minlength=n_cells + 1)[:-1].cumsum()

    def cell(self, x):
        c = (x - self.low) * self.per_unit
        return np.fmin(np.fmax(c, 0.0), self.last).astype(np.intp)

    def insert(self, x: float) -> None:
        self.below[self.cell(x) + 1:] += 1


def _score_candidates(points: np.ndarray, kappas: np.ndarray,
                      order: np.ndarray, cands: np.ndarray,
                      cand_kappas: np.ndarray, p: RieszParams,
                      cells: _Cells) -> tuple[int, float]:
    """Index and score of the first candidate with the smallest incremental
    log criterion, or (-1, inf) when no candidate is valid.

    ``order`` sorts the points by their first coordinate and ``cells``
    counts them.  Equal to the argmin of a full scoring of every candidate:
    candidates whose window bound exceeds a threshold taken from full rows
    cannot be the argmin and are never scored in full.
    """
    m = cands.shape[0]
    # window positions past either end repeat the end points
    start = cells.below[cells.cell(cands[:, 0])]
    nb = order.take(start + np.arange(-_K, _K)[:, None], mode="clip")
    window_e, _ = log_pair_terms(distances(points[nb], cands),
                                 kappas[nb] * cand_kappas, p)
    bound = window_e.max(axis=0)

    first = (np.argpartition(bound, _N_THRESHOLD - 1)[:_N_THRESHOLD]
             if m > _N_THRESHOLD else np.arange(m))
    first_scores, any_ok = _full_scores(first, points, kappas, cands,
                                        cand_kappas, p)
    threshold = first_scores.min()
    rest = bound <= threshold + _PRUNE_SLACK * (1.0 + abs(threshold))
    rest[first] = False
    rest = np.flatnonzero(rest)
    if not rest.size:  # every other bound, hence score, exceeds threshold
        best = int(first[first_scores == threshold].min())
        return (best, float(threshold)) if any_ok else (-1, np.inf)
    scores = np.full(m, np.inf)
    scores[first] = first_scores
    scores[rest], rest_ok = _full_scores(rest, points, kappas, cands,
                                         cand_kappas, p)
    if not (any_ok or rest_ok):
        return -1, np.inf
    best = int(np.argmin(scores))
    return best, float(scores[best])


def _full_scores(rows: np.ndarray, points: np.ndarray, kappas: np.ndarray,
                 cands: np.ndarray, cand_kappas: np.ndarray,
                 p: RieszParams) -> tuple[np.ndarray, bool]:
    """Full scores of the candidates ``rows``, inf where a pair is invalid,
    and whether any candidate is valid."""
    log_e, valid = pair_log_energies(cands[rows], cand_kappas[rows],
                                     points, kappas, p)
    return row_logsumexp(log_e), bool(valid.all(axis=1).any())


def propose_next_point(c: PointConfiguration, oracle: DensityOracle,
                       p: RieszParams, cfg: SamplerConfig,
                       rng: np.random.Generator, candidates=None) -> np.ndarray:
    """Candidate minimizing the incremental criterion over one candidate pool.

    The pool is candidate_count draws uniform over the oracle's box unless
    an explicit pool is supplied; ties break toward the first index.  Raises
    NumericalError when no candidate of the pool is valid.
    """
    if c.n < 1:
        raise ValueError("configuration must be non-empty")
    low = oracle.domain_low
    span = oracle.domain_high - low
    if candidates is None:
        # the arithmetic of rng.uniform(low, high, size), bit for bit
        cands = low + span * rng.random((cfg.candidate_count, oracle.dim))
    else:
        cands = np.asarray(candidates, float).reshape(-1, oracle.dim)
    cells = _Cells(low[0], span[0], _CELLS_PER_POINT * c.n, c.points[:, 0])
    best, _ = _score_candidates(c.points, c.kappa_values,
                                np.argsort(c.points[:, 0]), cands,
                                oracle.kappa(cands), p, cells)
    if best < 0:
        raise NumericalError("all candidates violated eps_dist")
    return cands[best].copy()


def accept_candidate(x_new, x_last, r_min_current: float,
                     rng: np.random.Generator,
                     domain_diameter: float | None = None) -> bool:
    """Distance screen followed by the ratio acceptance rule.

    Rejects outright when ||x_new - x_last|| < r_min_current; otherwise draws
    u ~ U(0,1) and accepts when ||x_new - x_last|| / ||x_last|| >= u.  When
    x_last sits at the origin the denominator is replaced by
    ``domain_diameter``.
    """
    x_last = np.asarray(x_last, dtype=float).ravel()
    diff = np.subtract(x_new, x_last, dtype=float)
    dist = math.sqrt(diff.dot(diff))  # np.linalg.norm's arithmetic
    if dist < r_min_current:
        return False
    denom = math.sqrt(x_last.dot(x_last))
    if denom == 0.0:
        if domain_diameter is None:
            raise ValueError("x_last at origin and no domain diameter given")
        denom = float(domain_diameter)
    return dist / denom >= rng.random()


def generate_configuration(oracle: DensityOracle, p: RieszParams,
                           cfg: SamplerConfig, initial=None) -> GenerationReport:
    """Run the full greedy loop and return the configuration plus bookkeeping.

    Deterministic given cfg.seed.  ``initial`` overrides the quadrature-based
    initial point (required for d > 1).  Each attempt scores one pool of
    candidate_count uniform candidates and screens its best one; a pool
    with no valid candidate is a rejected attempt that counts
    candidate_count rejected candidates.  Raises BudgetExhausted when
    max_retries * n_points pools cannot place every point.

    The distance gate passed to accept_candidate is half the running minimum
    separation: an exact farthest-point insertion sits at distance >= r_min/2
    from every existing point (packing-covering inequality), so the gate
    screens stragglers without deadlocking the fill.
    """
    if p.d != oracle.dim:
        raise ValueError(
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
    # indices of the placed points in first-coordinate order
    order = np.zeros(n, dtype=np.intp)
    low = oracle.domain_low
    span = oracle.domain_high - low
    cells = _Cells(low[0], span[0], _CELLS_PER_POINT * n, points[:1, 0])
    diameter = oracle.diameter
    rejected = 0
    trace = np.empty(n - 1)
    total_log_energy = -np.inf
    r_min = np.inf
    budget = cfg.max_retries * n
    attempts = 0
    k = 1
    while k < n:
        if attempts == budget:
            raise BudgetExhausted(
                f"{budget} candidate pools were not enough to place "
                f"{n} points (placed {k})"
            )
        attempts += 1
        # the arithmetic of rng.uniform(low, high, size), bit for bit
        cands = low + span * rng.random((cfg.candidate_count, d))
        best, score = _score_candidates(points[:k], kappas[:k], order[:k],
                                        cands, oracle.kappa(cands), p, cells)
        if best < 0:  # no valid candidate: the whole pool is rejected
            rejected += cfg.candidate_count
            continue
        cand = cands[best]
        threshold = 0.0 if k < 2 else 0.5 * r_min
        if not accept_candidate(cand, points[k - 1], threshold, rng,
                                diameter):
            rejected += 1
            continue
        # np.linalg.norm's rows; the least root is the least's root
        diff = points[:k] - cand
        r_min = min(r_min, math.sqrt((diff * diff).sum(axis=1).min()))
        total_log_energy = np.logaddexp(total_log_energy, score)
        trace[k - 1] = total_log_energy / p.s
        at = points[order[:k], 0].searchsorted(cand[0])
        order[at + 1:k + 1] = order[at:k]
        order[at] = k
        cells.insert(cand[0])
        points[k] = cand
        kappas[k] = oracle.kappa(cand)
        k += 1
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
    recorded in probability space.  p.d must be 1.
    """
    if target_oracle.dim != 1:
        raise ValueError("quantile mapping is defined for d == 1")
    u_lo = float(cdf_fn(target_oracle.domain_low[0]))
    u_hi = float(cdf_fn(target_oracle.domain_high[0]))
    u_oracle = DensityOracle.uniform_box([u_lo], [u_hi])
    report = generate_configuration(u_oracle, p, cfg)
    mapped = np.asarray(quantile_fn(report.configuration.points[:, 0]),
                        dtype=float).reshape(-1, 1)
    config = PointConfiguration(mapped, target_oracle.kappa(mapped), 1)
    return GenerationReport(
        configuration=config,
        rejected_candidates=report.rejected_candidates,
        final_min_separation=min_separation(config),
        energy_trace=report.energy_trace,
    )
