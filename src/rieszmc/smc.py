"""Particle filter whose proposal draws from a weighted Riesz configuration.

A standardized Riesz configuration supplies proposal locations z; per
particle the model's (approximately) optimal Gaussian proposal supplies an
affine frame (mean, std), and the particle value is mean + std * z plus a
small Laplace jitter.  The weight denominator is the exact density of this
sampling mechanism (a Laplace-kernel mixture over the configuration), which
keeps the likelihood estimator of the product-of-weight-means form exactly
unbiased.  The Laplace kernel's mixture density factors into prefix sums over
the sorted configuration, so evaluating it costs one rank per particle, the
number of points at or below its residual, rather than a sum over every
kernel.  With many particles the rank comes from a table of equal cells over
the configuration's hull, a few vector passes instead of a binary search per
particle; the multinomial ancestor search in the weight CDF takes its keys in
sorted order (``_search_unsorted``), because random keys miss the cache and
the branch predictor at every level of a binary search.  Both give each key
the same answer as ``np.searchsorted``, so every output is the same as with
the plain search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr, ndtri, wrightomega

from .energy import DensityOracle, PointConfiguration, RieszParams
from .errors import AllWeightsZero, LengthMismatch
from .sampler import SamplerConfig, quantile_mapped_configuration
from .ssm import (
    LgssParams,
    SvParams,
    lgss_observation_logpdf,
    lgss_optimal_proposal,
    lgss_transition_logpdf,
    sv_observation_logpdf,
    sv_transition_logpdf,
)

_LOG_2PI = math.log(2.0 * math.pi)

LOG_ZERO_SENTINEL = -1e9

_BAND_LEVELS = np.array([0.025, 0.975])

# From this many keys on, _search_unsorted searches them in sorted order.
# Measured on x86-64 (numpy 2.4) in the weight CDF, with as many entries as
# keys: below about 900 keys the argsort costs more than it saves.
_SORTED_SEARCH_MIN = 900

# From this many residuals on, RieszProposalSet ranks them through its cell
# table.  Measured on x86-64 (numpy 2.4) with 50, 100 and 180 points: below
# about 1,000 residuals one np.searchsorted call is as cheap or cheaper.
_CELL_RANK_MIN = 1000


def _search_unsorted(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.searchsorted(a, v, side="right")`` for unsorted keys v.

    Many keys are searched in sorted order and the indices scattered back;
    each key's index does not depend on the others, so it is the same array.
    """
    if v.shape[0] < _SORTED_SEARCH_MIN:
        return a.searchsorted(v, side="right")
    order = v.argsort()
    out = np.empty(v.shape[0], dtype=np.intp)
    out[order] = a.searchsorted(v[order], side="right")
    return out


def _logsumexp_1d(x: np.ndarray) -> float:
    """Bare log-sum-exp; scipy's wrapper is too slow for the filter loop."""
    m = x.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + math.log(np.exp(x - m).sum()))


@dataclass
class FilterOutput:
    """Per-step filtered means, ESS trace and the log-likelihood estimate."""

    filtered_means: np.ndarray
    log_likelihood: float
    ess_trace: np.ndarray
    percentile_lo: np.ndarray | None = None
    percentile_hi: np.ndarray | None = None


# ---------------------------------------------------------------------------
# model handles

class LgssFilterModel:
    """Filter-facing view of the linear Gaussian model with fixed x0."""

    def __init__(self, params: LgssParams, x0: float = 0.0):
        self.params = params
        self.x0 = x0

    def initial_states(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, self.x0)

    def transition_logpdf(self, x, x_prev):
        return lgss_transition_logpdf(x, x_prev, self.params)

    def observation_logpdf(self, y, x):
        return lgss_observation_logpdf(y, x, self.params)

    def proposal_moments(self, x_prev, y):
        # the frame std does not depend on x_prev: one float, broadcast
        mean, var = lgss_optimal_proposal(x_prev, y, self.params)
        return np.asarray(mean, dtype=float), math.sqrt(var)


class SvFilterModel:
    """Filter-facing view of the stochastic volatility model.

    The proposal frame is the Laplace approximation of the optimal density
    p(x_t | x_prev, y_t): its mode and the curvature there.  With prior mean
    m = mu + rho (x_prev - mu), v = sigma_v^2 and c = y^2 / (2 tau), the log
    posterior -(x - m)^2 / (2v) - x/2 - c e^{-x} is concave, and its
    gradient vanishes where x = m - v/2 + u with u e^u = v c e^{v/2 - m}.
    So u = W(e^z) = omega(z) at z = log(v c) + v/2 - m, where W is the
    Lambert function and omega the Wright omega function (Corless et al.
    1996; Lawrence, Corless & Jeffrey 2012).  At the mode c e^{-x} = u / v,
    so the curvature gives std = sqrt(v / (1 + u)).  y = 0 gives c = 0,
    z = -inf and u = 0: the frame is the prior shifted by -v/2, with std
    sigma_v.
    """

    def __init__(self, params: SvParams):
        self.params = params

    def initial_states(self, n: int, rng: np.random.Generator) -> np.ndarray:
        p = self.params
        return p.mu + math.sqrt(p.stationary_variance) * rng.standard_normal(n)

    def transition_logpdf(self, x, x_prev):
        return sv_transition_logpdf(x, x_prev, self.params)

    def observation_logpdf(self, y, x):
        return sv_observation_logpdf(y, x, self.params)

    def proposal_moments(self, x_prev, y):
        p = self.params
        var_v = p.sigma_v ** 2
        x_prev = np.asarray(x_prev, dtype=float)
        # m - v/2, the mode where y = 0
        shifted = (p.mu - 0.5 * var_v) + p.rho * (x_prev - p.mu)
        vc = var_v * y * y / (2.0 * p.tau)
        # z = log(v c) + v/2 - m = log(v c) - (m - v/2)
        u = wrightomega((math.log(vc) if vc > 0.0 else -math.inf) - shifted)
        return shifted + u, np.sqrt(var_v / (1.0 + u))


# ---------------------------------------------------------------------------
# proposal set

@dataclass(frozen=True)
class ProposalSpec:
    """The options of a Riesz proposal, apart from its points.

    ``RieszProposalSet`` describes jitter, tail_mix and index_mode;
    ``half_width`` truncates the configuration's N(0, 1) target, in stds,
    and ``resampling`` is the filter's ancestor scheme.  ``"modulo"`` with
    ``"systematic"`` is rejected: systematic resampling gives an ancestor's
    offspring a contiguous block of indices, so i mod N' would depend on
    the ancestor and bias the likelihood estimate.
    """

    jitter: float = 0.1
    tail_mix: float = 0.05
    index_mode: str = "random"
    half_width: float = 5.0
    resampling: str = "multinomial"

    def __post_init__(self):
        if self.jitter <= 0:
            raise ValueError("jitter must be positive")
        if not 0.0 <= self.tail_mix <= 1.0:
            raise ValueError("tail_mix must lie in [0, 1]")
        if self.index_mode not in ("random", "modulo"):
            raise ValueError("index_mode must be 'random' or 'modulo'")
        if self.resampling not in ("multinomial", "systematic"):
            raise ValueError("resampling must be 'multinomial' or 'systematic'")
        if self.index_mode == "modulo" and self.resampling == "systematic":
            raise ValueError("index_mode 'modulo' needs multinomial "
                             "resampling: under systematic resampling the "
                             "kernel index depends on the ancestor")


@dataclass
class RieszProposalSet:
    """Standardized Riesz locations plus the proposal density they induce.

    ``configuration`` holds the standardized points z and ``spec`` the
    proposal options.  Per particle with frame (mean, std) the proposal
    draws mean + std * (z_J + lap) with probability 1 - tail_mix, where
    lap ~ Laplace(0, jitter / sqrt(2)) so that ``jitter`` is the kernel's
    standard deviation; otherwise it draws mean + std * eps with eps
    standard normal.  J is a random index (``index_mode="random"``) or the
    particle index modulo the set size (``"modulo"``).  ``logpdf`` evaluates
    the exact density of this mechanism, the q used in the weight ratio; the
    Laplace kernels give it full support for every tail_mix.  tail_mix = 1
    degenerates to the plain Gaussian proposal.

    ``sample`` draws J, then lap as b * (E1 - E2) with E1, E2 iid Exp(1),
    which is exactly Laplace(0, b), then the tail flags, and a normal only
    for each flagged particle; it returns the draws and J.  At tail_mix = 1
    it draws one normal per particle and no J (None), and the set builds
    none of the narrow branch's tables.  ``logpdf`` sums the mixture's two
    prefix terms and the tail normal in one max-shifted log-sum-exp.

    Under ``"modulo"`` a batch of n particles draws kernel j exactly c_j
    times, and when the set size does not divide n the counts differ.  q is
    then the deterministic mixture sum_j (c_j / n) K_j over that index
    multiset (Owen & Zhou 2000), which keeps the weight mean unbiased; with
    equal counts it is the uniform mixture.  ``logpdf`` takes n from the
    length of its batch, so it must see the whole batch ``sample`` drew.
    """

    configuration: PointConfiguration
    spec: ProposalSpec = ProposalSpec()

    def __post_init__(self):
        if self.configuration.dim != 1:
            raise ValueError("proposal sets are one-dimensional")
        if self.configuration.n < 2:
            raise ValueError("proposal set needs at least 2 points")
        self._z = self.configuration.points[:, 0].copy()
        self._scale = self.spec.jitter / math.sqrt(2.0)
        tail_mix = self.spec.tail_mix
        # log weight of the tail branch, with the normal's constant
        self._log_wide = ((math.log(tail_mix) if tail_mix > 0.0 else -np.inf)
                          - 0.5 * _LOG_2PI)
        self._order = np.argsort(self._z)
        self._sorted_z = self._z[self._order]
        if tail_mix < 1.0:
            # the narrow branch's tables; at tail_mix = 1 q is the frame normal
            self._log_narrow = math.log1p(-tail_mix)
            self._uniform = self._mixture_tables(0.0, self._z.shape[0])
            self._build_cell_table()

    def _mixture_tables(self, log_counts, total: int):
        """Prefix tables of the narrow branch, the Laplace-kernel mixture
        with kernel j weighted count_j / total (log_counts in sorted-z
        order), its branch weight 1 - tail_mix and constant 1 / (2b) folded
        in as w_j = log(c_j (1 - tail_mix) / (2 b total)).

        Over sorted z and with k = #{z_j <= r},
          sum_j exp(w_j - |r - z_j| / b) = exp(lo[k] - r / b) + exp(hi[k] + r / b)
        where lo[k] = log sum_{j < k} exp(w_(j) + z_(j) / b) and
        hi[k] = log sum_{j >= k} exp(w_(j) - z_(j) / b); the padding makes
        lo[0] = hi[n] = -inf, an empty side.
        """
        u = self._sorted_z / self._scale
        w = (log_counts + self._log_narrow - math.log(total)
             - math.log(2.0 * self._scale))
        lo = np.concatenate(([-np.inf], np.logaddexp.accumulate(u + w)))
        hi = np.concatenate(
            (np.logaddexp.accumulate((w - u)[::-1])[::-1], [-np.inf]))
        return lo, hi

    def _mixture(self, n: int):
        """Mixture tables for a batch of n particles."""
        size = self.size
        if self.spec.index_mode == "random" or n % size == 0:
            return self._uniform
        counts = np.full(size, n // size)
        counts[:n % size] += 1
        with np.errstate(divide="ignore"):
            log_counts = np.log(counts[self._order])
        return self._mixture_tables(log_counts, n)

    def _build_cell_table(self):
        """Equal cells over the hull of z for ``_rank``.

        G = 8 N' cells; first[c] = #{z : cell(z) < c}, and depth is the most
        points in one cell.  The sorted points are padded with depth NaNs,
        which compare false against every residual (+inf padding would count
        itself under r = +inf).
        """
        z = self._sorted_z
        self._n_cells = 8 * z.shape[0]
        self._cells_per_unit = self._n_cells / (z[-1] - z[0])
        counts = np.bincount(self._cell(z), minlength=self._n_cells)
        self._first = np.concatenate(([0], np.cumsum(counts)[:-1]))
        self._depth = int(counts.max())
        self._zpad = np.concatenate((z, np.full(self._depth, np.nan)))

    def _cell(self, v: np.ndarray) -> np.ndarray:
        """Cell index of each value: floor((v - z_(1)) G / span) in [0, G)."""
        c = np.floor((v - self._sorted_z[0]) * self._cells_per_unit)
        return np.fmin(np.fmax(c, 0.0), self._n_cells - 1).astype(np.intp)

    def _rank(self, r: np.ndarray) -> np.ndarray:
        """k = #{z_j <= r}, ``np.searchsorted(sorted z, r, "right")``.

        cell() is monotone, so the points of lower cells are all <= r and
        those of higher cells all > r; only r's own cell, at most depth
        points from first[cell(r)] on, is compared.  NaN maps to cell 0 and
        compares false.
        """
        if r.shape[0] < _CELL_RANK_MIN:
            return self._sorted_z.searchsorted(r, side="right")
        first = self._first[self._cell(r)]
        k = first + (self._zpad[first] <= r)
        for t in range(1, self._depth):
            k += self._zpad[first + t] <= r
        return k

    @property
    def size(self) -> int:
        return self._z.shape[0]

    def sample(self, means: np.ndarray, stds: np.ndarray | float,
               rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray | None]:
        n = means.shape[0]
        if self.spec.tail_mix >= 1.0:
            return means + stds * rng.standard_normal(n), None
        if self.spec.index_mode == "modulo":
            idx = np.arange(n) % self.size
        else:
            idx = rng.integers(0, self.size, size=n)
        e = rng.standard_exponential((2, n))
        r = self._z[idx] + self._scale * (e[0] - e[1])
        wide = rng.random(n) < self.spec.tail_mix
        r[wide] = rng.standard_normal(np.count_nonzero(wide))
        return means + stds * r, idx

    def logpdf(self, x: np.ndarray, means: np.ndarray,
               stds: np.ndarray | float) -> np.ndarray:
        r = (x - means) / stds
        log_jac = -np.log(stds)
        tail_mix = self.spec.tail_mix
        if tail_mix >= 1.0:
            return -0.5 * r * r + self._log_wide + log_jac
        # log q = log(e^a + e^b [+ e^c]) with a, b the narrow branch's two
        # prefix terms and c the tail; a finite r makes a or b finite, so
        # the largest term m is finite and the shifted sum lies in [1, 3]
        lo, hi = self._mixture(x.shape[0])
        k = self._rank(r)
        rb = r / self._scale
        a = lo[k] - rb
        b = hi[k] + rb
        m = np.maximum(a, b)
        if tail_mix > 0.0:
            c = -0.5 * r * r + self._log_wide
            np.maximum(m, c, out=m)
        a -= m
        s = np.exp(a, out=a)
        b -= m
        s += np.exp(b, out=b)
        if tail_mix > 0.0:
            c -= m
            s += np.exp(c, out=c)
        return m + np.log(s) + log_jac

    @classmethod
    def standard_normal(cls, n_points: int, riesz_params: RieszParams,
                        sampler_cfg: SamplerConfig,
                        spec: ProposalSpec = ProposalSpec()
                        ) -> "RieszProposalSet":
        """Frozen standardized configuration targeting N(0, 1)."""
        target = DensityOracle.gaussian(0.0, 1.0, spec.half_width)
        cfg = replace(sampler_cfg, n_points=n_points)
        report = quantile_mapped_configuration(target, ndtr, ndtri,
                                               replace(riesz_params, d=1), cfg)
        return cls(report.configuration, spec)


# ---------------------------------------------------------------------------
# filter operations

def _multinomial_indices(w: np.ndarray, rng: np.random.Generator,
                         n: int) -> np.ndarray:
    edges = w.cumsum()
    edges[-1] = 1.0
    return _search_unsorted(edges, rng.random(n))


def _systematic_indices(w: np.ndarray, rng: np.random.Generator,
                        n: int) -> np.ndarray:
    positions = (np.arange(n) + rng.random()) / n
    edges = w.cumsum()
    edges[-1] = 1.0
    return edges.searchsorted(positions, side="right")


def run_filter(model, obs, n: int, N_prime: int, riesz_params: RieszParams,
               sampler_cfg: SamplerConfig | None, rng: np.random.Generator, *,
               mode: str = "frozen", proposal_set: RieszProposalSet | None = None,
               record_percentiles: bool = False) -> FilterOutput:
    """Full particle filter pass over the observation record.

    Every particle draws through one standardized configuration mapped into
    its own (mean, std) frame, ``"frozen"`` being the only ``mode``.  The
    proposal, resampling scheme included, is ``proposal_set``; without one
    the filter builds the default set of N_prime points from
    ``riesz_params`` and ``sampler_cfg``.  Weights are g * f / q with q the
    exact proposal density, and the log-likelihood estimate sums the logs of
    the weight means.  The filtered means are the weighted particle means,
    and with ``record_percentiles`` the band is the weighted 2.5% and 97.5%
    quantiles.
    """
    y = np.asarray(obs, dtype=float)
    if y.size == 0:
        raise ValueError("obs must be non-empty")
    if n < 1:
        raise ValueError("n must be at least 1")
    if N_prime < 2:
        raise ValueError("N_prime must be at least 2")
    if mode != "frozen":
        raise ValueError("mode must be 'frozen'")
    if proposal_set is None:
        if sampler_cfg is None:
            sampler_cfg = SamplerConfig(n_points=N_prime)
        proposal_set = RieszProposalSet.standard_normal(
            N_prime, riesz_params, sampler_cfg)
    if proposal_set.spec.resampling == "multinomial":
        resample = _multinomial_indices
    else:
        resample = _systematic_indices
    T = y.shape[0]
    means_out = np.empty(T)
    ess_out = np.empty(T)
    lo = np.empty(T) if record_percentiles else None
    hi = np.empty(T) if record_percentiles else None
    loglik = 0.0
    log_n = math.log(n)
    x = model.initial_states(n, rng)
    w_norm = np.full(n, 1.0 / n)
    for t in range(T):
        anc = resample(w_norm, rng, n)
        x_prev = x[anc]
        frame_means, frame_stds = model.proposal_moments(x_prev, y[t])
        x, _ = proposal_set.sample(frame_means, frame_stds, rng)
        log_w = (model.observation_logpdf(y[t], x)
                 + model.transition_logpdf(x, x_prev)
                 - proposal_set.logpdf(x, frame_means, frame_stds))
        lse = _logsumexp_1d(log_w)
        if not np.isfinite(lse):
            raise AllWeightsZero(
                f"all particle weights vanished at t={t + 1}: "
                "proposal/model mismatch"
            )
        loglik += lse - log_n
        w_norm = np.exp(log_w - lse)
        means_out[t] = w_norm @ x
        ess_out[t] = 1.0 / np.dot(w_norm, w_norm)
        if record_percentiles:
            # weighted 2.5% / 97.5% quantiles: the smallest particle whose
            # cumulative weight reaches each level
            order = x.argsort()
            cum = w_norm[order].cumsum()
            at = cum.searchsorted(_BAND_LEVELS)
            lo[t], hi[t] = x[order[np.minimum(at, n - 1)]]
    return FilterOutput(means_out, float(loglik), ess_out, lo, hi)


def log_bias_mse(filtered, oracle_means) -> tuple[float, float]:
    """Natural logs of mean absolute deviation and mean squared deviation.

    Exact agreement is reported with the sentinel -1e9 instead of -inf.
    """
    f = np.asarray(filtered, dtype=float)
    o = np.asarray(oracle_means, dtype=float)
    if f.shape != o.shape:
        raise LengthMismatch("filtered and oracle series differ in length")
    diff = f - o
    bias = float(np.mean(np.abs(diff)))
    mse = float(np.mean(diff ** 2))
    log_bias = float(np.log(bias)) if bias > 0 else LOG_ZERO_SENTINEL
    log_mse = float(np.log(mse)) if mse > 0 else LOG_ZERO_SENTINEL
    return log_bias, log_mse
