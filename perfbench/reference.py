"""Reference computations made apart from rieszmc.

Nothing here imports rieszmc: every quantity the benchmark checks is
recomputed from the model definitions with numpy/scipy alone.

* ``simulate_lgss``: the linear Gaussian record, drawn in the same order as
  ``rieszmc.lgss_simulate`` so a data seed names the same record.
* ``kalman``: the scalar Kalman recursion, vectorised over a vector of phi.
* ``phi_posterior``: the exact posterior of phi on a grid under a
  truncated-normal prior.
* ``sv_grid_filter``: a point-mass (grid) filter for the stochastic
  volatility model.
* ``kappa_gaussian`` / ``log_energy_extended``: the kappa transform of an
  N(0, 1) target and the configuration energy, summed in extended precision.
* ``ks_statistic`` / ``iid_ks_level``: the Kolmogorov-Smirnov distance of a
  point set and the median KS distance of an iid sample of the same size.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.special import kolmogi, ndtr

LOG_2PI = math.log(2.0 * math.pi)

# cells of the grid the posterior of phi is computed on
PHI_GRID_SIZE = 4001

# kappa of a target density: -log f + c0, floored at KAPPA_FLOOR, where c0
# puts the minimum over a KAPPA_GRID-point grid of the box at the floor
KAPPA_FLOOR = 1e-3
KAPPA_GRID = 1024


# ---------------------------------------------------------------------------
# linear Gaussian model

def simulate_lgss(phi: float, sigma_v: float, sigma_o: float, T: int,
                  data_seed: int) -> np.ndarray:
    """Observations y_1..y_T of X_t = phi X_{t-1} + N(0, sigma_v^2),
    Y_t = X_t + N(0, sigma_o^2), started at X_0 = 0."""
    rng = np.random.default_rng(data_seed)
    state_noise = rng.standard_normal(T) * sigma_v
    obs_noise = rng.standard_normal(T) * sigma_o
    x = 0.0
    y = np.empty(T)
    for t in range(T):
        x = phi * x + state_noise[t]
        y[t] = x + obs_noise[t]
    return y


def kalman(phi, sigma_v: float, sigma_o: float, y: np.ndarray,
           moments: bool = True):
    """Filtered means, filtered variances and log-likelihoods, from a known
    X_0 = 0.

    ``phi`` may be a scalar or a vector; the outputs then carry a leading
    axis of the same length (means and variances are (len(phi), T), and
    None unless ``moments``).
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    var_v, var_o = sigma_v ** 2, sigma_o ** 2
    m = np.zeros(phi.shape)
    P = np.zeros(phi.shape)
    loglik = np.zeros(phi.shape)
    means = variances = None
    if moments:
        means = np.empty((phi.shape[0], y.shape[0]))
        variances = np.empty_like(means)
    for t, yt in enumerate(y):
        m_pred = phi * m
        P_pred = phi * phi * P + var_v
        S = P_pred + var_o
        loglik -= 0.5 * (LOG_2PI + np.log(S) + (yt - m_pred) ** 2 / S)
        K = P_pred / S
        m = m_pred + K * (yt - m_pred)
        P = (1.0 - K) * P_pred
        if moments:
            means[:, t] = m
            variances[:, t] = P
    return means, variances, loglik


def phi_posterior(y: np.ndarray, sigma_v: float, sigma_o: float,
                  prior_mean: float,
                  prior_std: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact posterior of phi on a PHI_GRID_SIZE-cell midpoint grid over
    (-1, 1).

    The prior is N(prior_mean, prior_std^2) truncated to (-1, 1); its
    normalising constant cancels.  Returns the grid and the normalised
    probability of each cell.
    """
    edges = np.linspace(-1.0, 1.0, PHI_GRID_SIZE + 1)
    grid = 0.5 * (edges[1:] + edges[:-1])
    _, _, loglik = kalman(grid, sigma_v, sigma_o, y, moments=False)
    logp = loglik - 0.5 * ((grid - prior_mean) / prior_std) ** 2
    w = np.exp(logp - logp.max())
    return grid, w / w.sum()


# ---------------------------------------------------------------------------
# stochastic volatility model

def load_closes(path) -> tuple[list[str], np.ndarray]:
    """Dates and closes of a date,close CSV, in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [r["date"] for r in rows], np.array([float(r["close"])
                                                 for r in rows])


def sv_grid_filter(y: np.ndarray, mu: float, rho: float,
                   sigma_v: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Point-mass filter for x_t = mu + rho (x_{t-1} - mu) + N(0, sigma_v^2),
    y_t ~ N(0, exp(x_t)), x_0 stationary.

    Returns the filtered means and standard deviations of x_1..x_T and the
    log-likelihood.  The grid spans 8 stationary standard deviations on each
    side of mu with a spacing of at most sigma_v / 4, on at most 1501 points
    (a spacing of 0.24 sigma_v at rho = 0.999), which keeps the transition
    matrix under 18 MB; a Riemann sum of a Gaussian at that spacing is exact
    to double precision.
    """
    sd0 = sigma_v / math.sqrt(1.0 - rho * rho)
    half = 8.0 * sd0
    size = int(min(max(2.0 * half / (sigma_v / 4.0), 400), 1500)) | 1
    x = np.linspace(mu - half, mu + half, size)
    h = x[1] - x[0]
    # column j holds p(x_i | x_j) h, so prior_next = K @ filtered; built a
    # block of rows at a time to keep temporaries small
    K = np.empty((size, size))
    means_next = mu + rho * (x - mu)
    for i in range(0, size, 128):
        d = (x[i:i + 128, None] - means_next[None, :]) / sigma_v
        K[i:i + 128] = np.exp(-0.5 * d * d)
    K *= h / (sigma_v * math.sqrt(2 * math.pi))
    p = np.exp(-0.5 * ((x - mu) / sd0) ** 2) * (h / (sd0 * math.sqrt(2 * math.pi)))
    var_obs = np.exp(x)
    means = np.empty(y.shape[0])
    sds = np.empty(y.shape[0])
    loglik = 0.0
    for t, yt in enumerate(y):
        pred = K @ p
        g = np.exp(-0.5 * (LOG_2PI + np.log(var_obs) + yt * yt / var_obs))
        joint = pred * g
        z = joint.sum()
        loglik += math.log(z)
        p = joint / z
        means[t] = p @ x
        sds[t] = math.sqrt(max(p @ (x - means[t]) ** 2, 0.0))
    return means, sds, loglik


# ---------------------------------------------------------------------------
# Riesz configurations

def kappa_gaussian(x: np.ndarray, half_width: float) -> np.ndarray:
    """kappa(x) for the N(0, 1) target on [-half_width, half_width]."""
    grid = np.linspace(-half_width, half_width, KAPPA_GRID)
    c0 = KAPPA_FLOOR - 0.5 * LOG_2PI - 0.5 * float(np.min(grid * grid))
    return np.maximum(0.5 * LOG_2PI + 0.5 * x * x + c0, KAPPA_FLOOR)


def log_energy_extended(x: np.ndarray, kappa: np.ndarray, s: float, d: int,
                        alpha: float, beta: float) -> float:
    """log(sum_{i<j} exp((alpha k_i k_j + beta r)^(-s/2d)) / r^s) / s,
    every term and the sum carried in numpy's extended precision."""
    xl = np.asarray(x, dtype=np.longdouble)
    kl = np.asarray(kappa, dtype=np.longdouble)
    iu, ju = np.triu_indices(xl.shape[0], k=1)
    r = np.abs(xl[iu] - xl[ju])
    bracket = alpha * kl[iu] * kl[ju] + beta * r
    terms = bracket ** np.longdouble(-s / (2.0 * d)) - s * np.log(r)
    top = terms.max()
    total = np.sort(np.exp(terms - top)).sum(dtype=np.longdouble)
    return float((top + np.log(total)) / s)


def ks_statistic(x: np.ndarray) -> float:
    """sup |F_n - F| of the sample x against the N(0, 1) cdf F."""
    u = np.sort(ndtr(np.asarray(x, dtype=float)))
    n = u.shape[0]
    return float(max(np.max(np.arange(1, n + 1) / n - u),
                     np.max(u - np.arange(n) / n)))


def iid_ks_level(n: int) -> float:
    """Median KS distance of an iid sample of size n from its own law, by
    Stephens' finite-n form of the Kolmogorov limit (within 1% for n >= 5)."""
    return float(kolmogi(0.5) / (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)))
