"""The two state-space models: linear Gaussian and stochastic volatility.

Both models are scalar.  The linear Gaussian model comes with an exact
Kalman filter used as the oracle for bias/MSE and likelihood checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)


def _norm_logpdf(x, mean, var):
    """Gaussian log-density with variance parameterization (vectorized)."""
    x = np.asarray(x, dtype=float)
    return -0.5 * (_LOG_2PI + np.log(var) + (x - mean) ** 2 / var)


@dataclass(frozen=True)
class LgssParams:
    """X_t = phi X_{t-1} + N(0, sigma_v^2),  Y_t = X_t + N(0, sigma_o^2)."""

    phi: float
    sigma_v: float
    sigma_o: float

    def __post_init__(self):
        if not abs(self.phi) < 1.0:
            raise ValueError("phi must lie in (-1, 1)")
        if self.sigma_v <= 0 or self.sigma_o <= 0:
            raise ValueError("noise standard deviations must be positive")


@dataclass(frozen=True)
class SvParams:
    """Stochastic volatility: latent AR(1) log-volatility, Gaussian returns.

    x_0 ~ N(mu, sigma_v^2 / (1 - rho^2)),
    x_t ~ N(mu + rho (x_{t-1} - mu), sigma_v^2),
    y_t ~ N(0, exp(x_t) * tau).
    """

    mu: float
    rho: float
    sigma_v: float
    tau: float = 1.0

    def __post_init__(self):
        if not abs(self.rho) < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if self.sigma_v <= 0:
            raise ValueError("sigma_v must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    @property
    def stationary_variance(self) -> float:
        return self.sigma_v ** 2 / (1.0 - self.rho ** 2)

    def obs_variance(self, x) -> np.ndarray:
        return np.exp(np.asarray(x, dtype=float)) * self.tau


@dataclass
class Trajectory:
    """Latent states x_0..x_T and observations y_1..y_T."""

    states: np.ndarray
    observations: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.observations = np.asarray(self.observations, dtype=float)
        if self.observations.shape[0] != self.states.shape[0] - 1:
            raise ValueError("observations must have length len(states) - 1")


@dataclass
class KalmanOutput:
    """Filtered moments and the exact log-likelihood."""

    filtered_means: np.ndarray
    filtered_variances: np.ndarray
    log_likelihood: float


# ---------------------------------------------------------------------------
# linear Gaussian model

def lgss_simulate(p: LgssParams, T: int, x0: float,
                  rng: np.random.Generator) -> Trajectory:
    """Simulate T steps of the linear Gaussian model starting from x0."""
    if T < 1:
        raise ValueError("T must be at least 1")
    states = np.empty(T + 1)
    obs = np.empty(T)
    states[0] = x0
    state_noise = rng.standard_normal(T) * p.sigma_v
    obs_noise = rng.standard_normal(T) * p.sigma_o
    for t in range(1, T + 1):
        states[t] = p.phi * states[t - 1] + state_noise[t - 1]
        obs[t - 1] = states[t] + obs_noise[t - 1]
    return Trajectory(states, obs)


def lgss_optimal_proposal(x_prev, y_t, p: LgssParams):
    """Posterior of x_t given (x_prev, y_t): mean and variance.

    variance = (sigma_v^-2 + sigma_o^-2)^-1,
    mean = variance * (sigma_o^-2 y_t + sigma_v^-2 phi x_prev).
    """
    prec_v = 1.0 / p.sigma_v ** 2
    prec_o = 1.0 / p.sigma_o ** 2
    variance = 1.0 / (prec_v + prec_o)
    mean = variance * (prec_o * np.asarray(y_t, dtype=float)
                       + prec_v * p.phi * np.asarray(x_prev, dtype=float))
    return mean, variance


def lgss_transition_logpdf(x_t, x_prev, p: LgssParams):
    return _norm_logpdf(x_t, p.phi * np.asarray(x_prev, dtype=float),
                        p.sigma_v ** 2)


def lgss_observation_logpdf(y_t, x_t, p: LgssParams):
    return _norm_logpdf(y_t, np.asarray(x_t, dtype=float), p.sigma_o ** 2)


def kalman_filter(p: LgssParams, obs, x0_mean: float,
                  x0_var: float) -> KalmanOutput:
    """Exact scalar Kalman recursion with prediction-error log-likelihood."""
    y = np.asarray(obs, dtype=float)
    if y.size == 0:
        raise ValueError("obs must be non-empty")
    if x0_var < 0:
        raise ValueError("x0_var must be nonnegative")
    T = y.shape[0]
    means = np.empty(T)
    variances = np.empty(T)
    m, P = x0_mean, x0_var
    loglik = 0.0
    var_v, var_o = p.sigma_v ** 2, p.sigma_o ** 2
    for t in range(T):
        m_pred = p.phi * m
        P_pred = p.phi ** 2 * P + var_v
        S = P_pred + var_o
        loglik += -0.5 * (_LOG_2PI + math.log(S) + (y[t] - m_pred) ** 2 / S)
        K = P_pred / S
        m = m_pred + K * (y[t] - m_pred)
        P = (1.0 - K) * P_pred
        means[t] = m
        variances[t] = P
    return KalmanOutput(means, variances, float(loglik))


# ---------------------------------------------------------------------------
# stochastic volatility model

def sv_prior_logpdf(x0, p: SvParams):
    return _norm_logpdf(x0, p.mu, p.stationary_variance)


def sv_transition_logpdf(x_t, x_prev, p: SvParams):
    mean = p.mu + p.rho * (np.asarray(x_prev, dtype=float) - p.mu)
    return _norm_logpdf(x_t, mean, p.sigma_v ** 2)


def sv_observation_logpdf(y_t, x_t, p: SvParams):
    """SV observation log-density log N(y; 0, tau e^x).

    It is -(log 2 pi + log tau + x + (y^2 / tau) e^{-x}) / 2, and the
    variance tau e^x is never formed, so where it would overflow or
    underflow the value is still exact: -400.92 at x = 800, not -inf.  Where
    y = 0 the last term is dropped, so an overflowing e^{-x} never meets the
    zero (0 * inf would be NaN), and where it overflows with y != 0 the
    value is -inf, the log of a density that underflows to 0.
    """
    x = np.asarray(x_t, dtype=float)
    q = np.square(y_t) / p.tau
    with np.errstate(over="ignore", invalid="ignore"):
        s = x + np.where(q == 0.0, 0.0, q * np.exp(-x))
    return -0.5 * (s + (_LOG_2PI + math.log(p.tau)))


def sv_simulate(p: SvParams, T: int, rng: np.random.Generator) -> Trajectory:
    """Simulate T steps of the stochastic volatility model."""
    if T < 1:
        raise ValueError("T must be at least 1")
    states = np.empty(T + 1)
    obs = np.empty(T)
    states[0] = p.mu + math.sqrt(p.stationary_variance) * rng.standard_normal()
    state_noise = rng.standard_normal(T) * p.sigma_v
    obs_noise = rng.standard_normal(T)
    for t in range(1, T + 1):
        states[t] = p.mu + p.rho * (states[t - 1] - p.mu) + state_noise[t - 1]
        obs[t - 1] = math.sqrt(p.obs_variance(states[t])) * obs_noise[t - 1]
    return Trajectory(states, obs)
