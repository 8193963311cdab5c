"""Pseudo-marginal Metropolis-Hastings over model parameters.

The chain uses a Gaussian random walk, substitutes the particle filter's
likelihood estimate for the intractable likelihood, and keeps the current
estimate untouched on rejection (the pseudo-marginal invariant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .energy import RieszParams
from .errors import BurnInTooLarge, SeriesTooShort
from .sampler import SamplerConfig
from .smc import (
    LgssFilterModel,
    RieszProposalSet,
    SvFilterModel,
    run_filter,
)
from .ssm import LgssParams, SvParams

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class ChainState:
    """Current parameter vector with its likelihood estimate and prior."""

    theta: np.ndarray
    log_lik_hat: float
    log_prior: float


@dataclass(frozen=True)
class PmhConfig:
    """Chain length, step sizes and the particle budget per evaluation."""

    iterations: int
    burn_in: int
    step_sizes: np.ndarray
    n_particles: int
    n_riesz: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "step_sizes",
                           np.atleast_1d(np.asarray(self.step_sizes, float)))
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must lie in [0, iterations)")
        if np.any(self.step_sizes < 0):
            raise ValueError("step sizes must be nonnegative")
        if self.n_particles < 1 or self.n_riesz < 2:
            raise ValueError("invalid particle counts")


@dataclass
class ChainOutput:
    """Sampled parameters, accept flags and the likelihood-estimate trace."""

    samples: np.ndarray
    accepted: np.ndarray
    acceptance_rate: float
    log_liks: np.ndarray | None = None


# ---------------------------------------------------------------------------
# priors

@dataclass(frozen=True)
class TruncatedGaussianPrior:
    """Normal prior truncated to (low, high); unbounded by default, where
    the mass is 1 and the log-density is the plain normal's."""

    mean: float
    std: float
    low: float = -np.inf
    high: float = np.inf

    def __post_init__(self):
        if not self.std > 0:
            raise ValueError(f"std must be positive, got {self.std}")

    def logpdf(self, v: float) -> float:
        if not self.low < v < self.high:
            return -np.inf
        z = (v - self.mean) / self.std
        mass = (ndtr((self.high - self.mean) / self.std)
                - ndtr((self.low - self.mean) / self.std))
        return -0.5 * (_LOG_2PI + z * z) - math.log(self.std) - math.log(mass)


@dataclass(frozen=True)
class IndependentPrior:
    """Product of per-coordinate priors."""

    components: tuple

    def log_prior(self, theta: np.ndarray) -> float:
        total = 0.0
        for comp, v in zip(self.components, np.atleast_1d(theta)):
            lp = comp.logpdf(float(v))
            if lp == -np.inf:
                return -np.inf
            total += lp
        return total


# ---------------------------------------------------------------------------
# model families

class LgssPhiFamily:
    """theta = (phi,) with the noise scales held fixed."""

    theta_names = ("phi",)

    def __init__(self, sigma_v: float = 1.0, sigma_o: float = 0.1,
                 x0: float = 0.0):
        self.sigma_v = sigma_v
        self.sigma_o = sigma_o
        self.x0 = x0

    def make_model(self, theta) -> LgssFilterModel:
        phi = float(np.atleast_1d(theta)[0])
        return LgssFilterModel(LgssParams(phi, self.sigma_v, self.sigma_o),
                               self.x0)

    @staticmethod
    def default_prior() -> IndependentPrior:
        return IndependentPrior((TruncatedGaussianPrior(0.75, 0.5, -1.0, 1.0),))


class SvFamily:
    """theta = (mu, rho, sigma_v) with tau held fixed."""

    theta_names = ("mu", "rho", "sigma_v")

    def __init__(self, tau: float = 1.0):
        self.tau = tau

    def make_model(self, theta) -> SvFilterModel:
        mu, rho, sigma_v = (float(v) for v in np.atleast_1d(theta))
        return SvFilterModel(SvParams(mu, rho, sigma_v, self.tau))

    @staticmethod
    def default_prior() -> IndependentPrior:
        return IndependentPrior((
            TruncatedGaussianPrior(0.0, 1.0),
            TruncatedGaussianPrior(0.95, 0.2, -1.0, 1.0),
            TruncatedGaussianPrior(0.2, 0.5, 0.0, np.inf),
        ))


# ---------------------------------------------------------------------------
# chain operations

def propose_theta(theta: np.ndarray, step_sizes: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Gaussian random walk; out-of-support proposals are returned as-is."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    steps = np.atleast_1d(np.asarray(step_sizes, dtype=float))
    if steps.shape != theta.shape:
        raise ValueError("step_sizes shape must match theta")
    return theta + steps * rng.standard_normal(theta.shape[0])


def acceptance_log_ratio(current: ChainState, proposed: ChainState) -> float:
    """Log acceptance ratio; -inf when the proposal has zero prior mass.

    The random walk is symmetric, so no proposal-density term enters.
    """
    if proposed.log_prior == -np.inf:
        return -np.inf
    return (proposed.log_lik_hat + proposed.log_prior
            - current.log_lik_hat - current.log_prior)


def pmh_run(family, obs, prior, cfg: PmhConfig, *, theta0,
            proposal_set: RieszProposalSet | None = None,
            loglik_fn: Callable | None = None) -> ChainOutput:
    """Run the pseudo-marginal chain; deterministic given cfg.seed.

    Every filter evaluation draws through ``proposal_set``, which must hold
    cfg.n_riesz points.  The estimate is unbiased given the set, so one set
    serves every evaluation of the chain.  Without a set the chain builds
    the default one, ``RieszParams()`` and ``ProposalSpec()`` with a
    generator seed drawn from cfg.seed.  ``loglik_fn(theta, rng)`` overrides
    the particle-filter likelihood (used to reduce the chain to
    exact-likelihood MH in tests).  A rejected proposal never overwrites the
    stored likelihood estimate.
    """
    obs = np.asarray(obs, dtype=float)
    ss = np.random.SeedSequence(cfg.seed)
    chain_seed, pset_seed, filt_root = ss.spawn(3)
    rng_chain = np.random.default_rng(chain_seed)
    if proposal_set is not None and proposal_set.size != cfg.n_riesz:
        raise ValueError(f"proposal set has {proposal_set.size} points, "
                         f"cfg.n_riesz is {cfg.n_riesz}")
    if proposal_set is None and loglik_fn is None:
        proposal_set = RieszProposalSet.standard_normal(
            cfg.n_riesz, RieszParams(), SamplerConfig(
                n_points=cfg.n_riesz,
                seed=int(pset_seed.generate_state(1)[0])))

    def evaluate(theta: np.ndarray, rng: np.random.Generator) -> float:
        if loglik_fn is not None:
            return float(loglik_fn(theta, rng))
        model = family.make_model(theta)
        out = run_filter(model, obs, cfg.n_particles, cfg.n_riesz, None,
                         None, rng, proposal_set=proposal_set)
        return out.log_likelihood

    theta = np.atleast_1d(np.asarray(theta0, dtype=float)).copy()
    log_prior = prior.log_prior(theta)
    if log_prior == -np.inf:
        raise ValueError("theta0 must have positive prior mass")
    rng_init = np.random.default_rng(filt_root.spawn(1)[0])
    log_lik = evaluate(theta, rng_init)
    k = theta.shape[0]
    samples = np.empty((cfg.iterations, k))
    accepted = np.zeros(cfg.iterations, dtype=bool)
    log_liks = np.empty(cfg.iterations)
    for it in range(cfg.iterations):
        proposal = propose_theta(theta, cfg.step_sizes, rng_chain)
        if np.array_equal(proposal, theta):
            # degenerate (zero-step) proposal: no-op move, keep the estimate
            accepted[it] = True
        else:
            lp_prop = prior.log_prior(proposal)
            if lp_prop > -np.inf:
                rng_filter = np.random.default_rng(filt_root.spawn(1)[0])
                ll_prop = evaluate(proposal, rng_filter)
                log_ratio = acceptance_log_ratio(
                    ChainState(theta, log_lik, log_prior),
                    ChainState(proposal, ll_prop, lp_prop))
                if math.log(rng_chain.random()) < log_ratio:
                    theta = proposal
                    log_lik = ll_prop
                    log_prior = lp_prop
                    accepted[it] = True
        samples[it] = theta
        log_liks[it] = log_lik
    return ChainOutput(samples, accepted, float(accepted.mean()), log_liks)


def acf(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 0..max_lag (demeaned, lag-0 normalized)."""
    x = np.asarray(series, dtype=float)
    if x.shape[0] <= max_lag:
        raise SeriesTooShort(
            f"series length {x.shape[0]} must exceed max_lag {max_lag}"
        )
    d = x - x.mean()
    c0 = float(np.dot(d, d))
    if c0 == 0.0:
        out = np.zeros(max_lag + 1)
        out[0] = 1.0
        return out
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        out[lag] = float(np.dot(d[: len(d) - lag], d[lag:])) / c0
    return out


def posterior_summary(chain: ChainOutput, burn_in: int) -> tuple[np.ndarray, np.ndarray]:
    """Post burn-in sample mean and population variance (1/N divisor)."""
    samples = np.atleast_2d(chain.samples)
    if burn_in >= samples.shape[0]:
        raise BurnInTooLarge(
            f"burn_in {burn_in} leaves no samples out of {samples.shape[0]}"
        )
    kept = samples[burn_in:]
    return kept.mean(axis=0), kept.var(axis=0)
