"""Weighted Riesz pair potential, configuration energy and geometric diagnostics.

All pair quantities are kept in the log domain: with s = 40 and d = 1 the
weight exponent is (bracket)^(-20), so the raw potential w / r^s overflows
double precision for r below roughly 0.1.  The configuration energy is
therefore reported as log(sum of pair potentials) / s, combined with
log-sum-exp.

The distances and the log-sum-exp repeat, in numpy, the arithmetic of
scipy's ``cdist``/``pdist`` and ``scipy.special.logsumexp``, so their
results are the same bit for bit while the package loads only
``scipy.special``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateDensity, DegenerateDistance, NonPositiveBracket

KAPPA_FLOOR = 1e-3

# Points per axis of a one-dimensional oracle's normalization grid.
_NORM_RESOLUTION = 1024

# Distances square the coordinate differences, and below about 1.5e-154
# the square is subnormal or 0; min_separation measures such pairs again.
_SQUARE_UNDERFLOW = 1e-150


@dataclass(frozen=True)
class RieszParams:
    """Constants of the weighted Riesz criterion and its numeric guards.

    Parameters
    ----------
    s : float
        Riesz exponent; must exceed the ambient dimension ``d``.
    d : int
        Ambient dimension.
    alpha : float
        Sign/scale on the kappa product inside the weight bracket.  The
        default +1 matches the experiment formula; -1 is allowed but then
        the bracket can turn non-positive for close pairs.
    beta : float
        Local discrepancy coefficient, >= 0.
    eps_dist : float
        Minimum pair distance accepted before the pair is degenerate.
    """

    s: float = 40.0
    d: int = 1
    alpha: float = 1.0
    beta: float = 2.0
    eps_dist: float = 1e-9

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if not self.s > self.d:
            raise ValueError(f"s must exceed d (got s={self.s}, d={self.d})")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.eps_dist <= 0:
            raise ValueError("eps_dist must be positive")

    @property
    def bracket_exponent(self) -> float:
        """Exponent -s/(2d) applied to the weight bracket."""
        return -self.s / (2.0 * self.d)


@dataclass
class PointConfiguration:
    """Ordered set of points in R^d with the kappa value of each point."""

    points: np.ndarray
    kappa_values: np.ndarray
    dim: int

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[1] != self.dim:
            # accept (n,) input for dim == 1
            if self.dim == 1 and pts.shape[0] == 1:
                pts = pts.reshape(-1, 1)
            else:
                raise ValueError(
                    f"points have dimension {pts.shape[1]}, expected {self.dim}"
                )
        kap = np.asarray(self.kappa_values, dtype=float).reshape(-1)
        if kap.shape[0] != pts.shape[0]:
            raise ValueError("kappa_values length must match number of points")
        # equal rows are adjacent in lexicographic order; comparing them,
        # not their distance, keeps distinct points whose squared distance
        # underflows to 0, and 0.0 == -0.0 still counts as coincident
        srt = pts[np.lexsort(pts.T[::-1])]
        if np.any(np.all(srt[1:] == srt[:-1], axis=1)):
            raise DegenerateDistance("configuration contains coincident points")
        self.points = pts
        self.kappa_values = kap

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_points(cls, points, oracle: "DensityOracle") -> "PointConfiguration":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != oracle.dim:
            pts = pts.reshape(-1, oracle.dim)
        return cls(pts, oracle.kappa(pts), oracle.dim)


@dataclass
class DensityOracle:
    """Evaluates a target log-density and its kappa transform on a box.

    ``log_density`` must accept an (m, d) array and return an (m,) array of
    log-density values.  kappa(x) = max(-log f(x) + c0, KAPPA_FLOOR) where c0
    is fixed at construction so that the minimum of kappa over an evaluation
    grid equals KAPPA_FLOOR.
    """

    log_density: Callable[[np.ndarray], np.ndarray]
    domain_low: np.ndarray
    domain_high: np.ndarray
    _kappa_offset: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.domain_low, dtype=float))
        hi = np.atleast_1d(np.asarray(self.domain_high, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("domain_low and domain_high differ in shape")
        if not np.all(hi > lo):
            raise ValueError("domain_high must exceed domain_low on every axis")
        self.domain_low = lo
        self.domain_high = hi
        grid = self._normalization_grid()
        logf = np.asarray(self.log_density(grid), dtype=float)
        if not np.any(np.isfinite(logf)):
            raise DegenerateDensity("log-density is non-finite on the whole grid")
        # min over grid of (-log f + c0) == KAPPA_FLOOR
        self._kappa_offset = KAPPA_FLOOR + np.max(logf[np.isfinite(logf)])

    @property
    def dim(self) -> int:
        return self.domain_low.shape[0]

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.domain_high - self.domain_low))

    def _normalization_grid(self) -> np.ndarray:
        d = self.dim
        per_axis = _NORM_RESOLUTION if d == 1 else (64 if d == 2 else 8)
        axes = [
            np.linspace(self.domain_low[j], self.domain_high[j], per_axis)
            for j in range(d)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def kappa(self, points) -> np.ndarray | float:
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 1
        pts = np.atleast_2d(pts)
        logf = np.asarray(self.log_density(pts), dtype=float)
        kap = np.maximum(-logf + self._kappa_offset, KAPPA_FLOOR)
        return float(kap[0]) if scalar else kap

    @classmethod
    def uniform_box(cls, low, high) -> "DensityOracle":
        lo = np.atleast_1d(np.asarray(low, dtype=float))
        hi = np.atleast_1d(np.asarray(high, dtype=float))
        log_const = -float(np.sum(np.log(hi - lo)))

        def logf(x, _c=log_const):
            return np.full(x.shape[0], _c)

        return cls(logf, lo, hi)

    @classmethod
    def gaussian(cls, mean: float = 0.0, std: float = 1.0,
                 half_width: float = 5.0) -> "DensityOracle":
        if std <= 0:
            raise ValueError("std must be positive")
        const = -0.5 * np.log(2.0 * np.pi) - np.log(std)

        def logf(x, _m=mean, _s=std, _c=const):
            z = (x[:, 0] - _m) / _s
            return _c - 0.5 * z * z

        return cls(logf, [mean - half_width * std], [mean + half_width * std])


# ---------------------------------------------------------------------------
# distances and log-sum-exp

def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean norms of a - b over the last axis, a and b broadcast.

    Per pair this is scipy's cdist/pdist arithmetic: the squared coordinate
    differences summed in axis order, then the square root.  Overflow and
    inf - inf give inf and NaN without a warning, as there.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.subtract(a, b)
        sq *= sq
        r = sq[..., 0]
        for j in range(1, sq.shape[-1]):
            r = r + sq[..., j]
        return np.sqrt(r, out=r)


def _pdist(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distances of the pairs i < j in row-major order (scipy's pdist), with
    the pair indices."""
    iu, ju = np.triu_indices(points.shape[0], k=1)
    return distances(points[iu], points[ju]), iu, ju


def row_logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a C-ordered (m, k) array, with the
    arithmetic of ``scipy.special.logsumexp(a, axis=1)``.

    Each row's max entries are masked out of the shifted sum s and counted,
    and the result is log1p(s / count) + log(count) + max.  Rows where that
    is not finite (all -inf, an +inf entry, overflow) take
    log(sum(exp(row))), as scipy does.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        top = a.max(axis=1, keepdims=True)
        at_top = a == top
        count = at_top.sum(axis=1, dtype=float)
        shifted = np.where(at_top, -np.inf, a)
        shifted -= top
        s = np.exp(shifted, out=shifted).sum(axis=1)
        out = np.log1p(s / count) + np.log(count) + top[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            with np.errstate(over="ignore"):
                out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


# ---------------------------------------------------------------------------
# pair potential

def log_pair_energy(xi, xj, ki: float, kj: float, p: RieszParams) -> float:
    """log of the pair potential w(xi, xj) / ||xi-xj||^s, with the pair
    weight w = (alpha*ki*kj + beta*||xi-xj||)^(-s/(2d))."""
    r = float(np.linalg.norm(np.subtract(xi, xj, dtype=float)))
    if r < p.eps_dist:
        raise DegenerateDistance(f"pair distance {r} below eps_dist {p.eps_dist}")
    log_e, valid = log_pair_terms(np.array(r), np.array(ki * kj), p)
    if not valid:
        raise NonPositiveBracket(
            f"bracket <= 0 for kappas {ki}, {kj} at distance {r}: alpha="
            f"{p.alpha}, beta={p.beta} lie outside the criterion's valid region")
    return float(log_e)


def pair_log_energies(points_a: np.ndarray, kappas_a: np.ndarray,
                      points_b: np.ndarray, kappas_b: np.ndarray,
                      p: RieszParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized log pair potentials between two point sets.

    Returns an (m, k) matrix of log energies and an (m, k) boolean validity
    mask; entries are invalid where the distance is below eps_dist or the
    bracket is non-positive.  Invalid entries hold +inf.
    """
    a_pts = np.atleast_2d(np.asarray(points_a, dtype=float))
    b_pts = np.atleast_2d(np.asarray(points_b, dtype=float))
    kap = np.ravel(kappas_a)[:, None] * np.ravel(kappas_b)
    return log_pair_terms(distances(a_pts[:, None], b_pts), kap, p)


def log_pair_terms(r: np.ndarray, kappa_products: np.ndarray,
                   p: RieszParams) -> tuple[np.ndarray, np.ndarray]:
    """Log pair potentials from pair distances and kappa products.

    Elementwise over arrays of one shape; returns the log energies and the
    validity mask, with +inf where the distance is below eps_dist or the
    bracket is non-positive.
    """
    bracket = p.alpha * kappa_products + p.beta * r
    valid = (r >= p.eps_dist) & (bracket > 0.0)
    all_valid = valid.all()
    if not all_valid:
        bracket = np.where(valid, bracket, 1.0)
        r = np.where(valid, r, 1.0)
    log_e = np.power(bracket, p.bracket_exponent) - p.s * np.log(r)
    if not all_valid:
        log_e = np.where(valid, log_e, np.inf)
    return log_e, valid


def config_energy(c: PointConfiguration, p: RieszParams) -> float:
    """Log of the configuration energy: log(sum over pairs i<j of pair potentials) / s.

    Deterministic for fixed input; exp(s * value) recovers the raw bracketed
    sum of the criterion.
    """
    if c.n < 2:
        raise ValueError("config_energy requires at least two points")
    r, iu, ju = _pdist(c.points)
    if np.any(r < p.eps_dist):
        raise DegenerateDistance("configuration violates the eps_dist guard")
    log_terms, valid = log_pair_terms(
        r, c.kappa_values[iu] * c.kappa_values[ju], p)
    if not np.all(valid):
        raise NonPositiveBracket("a pair bracket is non-positive")
    return float(row_logsumexp(log_terms[None, :])[0] / p.s)


# ---------------------------------------------------------------------------
# geometric diagnostics

def min_separation(c: PointConfiguration) -> float:
    """Minimum pairwise distance of the configuration.

    It stays exact where the squared distance underflows, so distinct
    points never read 0: the pairs whose squared distance puts them below
    _SQUARE_UNDERFLOW are measured again with np.hypot, which scales
    instead of squaring.
    """
    if c.n < 2:
        raise ValueError("min_separation requires at least two points")
    r, iu, ju = _pdist(c.points)
    close = np.flatnonzero(r < _SQUARE_UNDERFLOW)
    if close.size:
        r[close] = np.hypot.reduce(c.points[iu[close]] - c.points[ju[close]],
                                   axis=1)
    return float(r.min())


def covering_radius(c: PointConfiguration, reference) -> float:
    """max over reference points of the distance to the nearest configuration point.

    The reference set stands in for the underlying domain; a dense grid is
    the intended use.
    """
    ref = np.atleast_2d(np.asarray(reference, dtype=float))
    if ref.size == 0:
        raise ValueError("reference set is empty")
    if ref.shape[1] != c.dim:
        raise ValueError(
            f"reference dimension {ref.shape[1]} != configuration dimension {c.dim}"
        )
    return float(distances(ref[:, None], c.points).min(axis=1).max())


def uniformity_statistic(c: PointConfiguration, target_cdf) -> float:
    """Kolmogorov-Smirnov statistic of the probability-transformed points.

    Maps the sorted points through ``target_cdf``, called once on their
    array, and returns sup_x |F_empirical(x) - target_cdf(x)|, i.e. the KS
    distance of the transformed sample from the uniform law on [0, 1].
    Dimension one only.
    """
    if c.dim != 1:
        raise ValueError("uniformity_statistic is defined for d == 1")
    x = np.sort(c.points[:, 0])
    u = np.asarray(target_cdf(x), dtype=float)
    n = x.shape[0]
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - u), np.max(u - grid_lo)))
