"""The benchmark workloads: three in BENCHMARK.json, and ``UNLISTED``.

Each workload makes its inputs from the workload seed in ``setup``, makes
the benchmark's own reference computations in ``prepare_references`` (after
run.py has timed the set-up), then hands run.py whole rounds of operations.
An operation is a zero-argument callable returning ``(work, payload)``;
``check(payload)`` lists what is wrong with its output, judged against the
independent computations in ``reference.py`` and against properties that
hold for a correct program whatever its random stream.  ``check_run`` does
the same for properties that need every operation of the run.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

import rieszmc as rm
from rieszmc import cli

import reference as ref

RIESZ = rm.RieszParams(s=40.0, d=1)

# LGSS of acceptance criterion 2: phi = 0.75, sigma_v = 1, sigma_o = 0.1,
# the record of data seed 11 and a random-walk step of 0.1 for phi
PHI, SIGMA_V, SIGMA_O = 0.75, 1.0, 0.1
PRIOR_MEAN, PRIOR_STD = 0.75, 0.5
LGSS_PMH_DATA_SEED, LGSS_PMH_STEP = 11, 0.1

# the N(0, 1) target of riesz-generate lives on [-HALF_WIDTH, HALF_WIDTH]
HALF_WIDTH = 5.0

SV_CSV = (Path(__file__).resolve().parent.parent / "src" / "rieszmc" / "data"
          / "omxs30_sample.csv")

# Pooled acceptance rate a PMH workload's chains must reach over a run.  A
# correct program accepts about 0.25 on lgss-pmh and 0.2 on sv-pmh-cli; a
# chain that never accepts, or accepts everything, is broken.
ACCEPT_BAND = (0.03, 0.9)

# |log p-hat - log p| allowed per filter pass, in sds of log p-hat.  The sd
# was measured over 20-40 filter seeds: 1.0 on LGSS at T = 500, n = 100 and
# 0.14 at n = 5000; 1.1 on the SV data at T = 251, n = 200.  It grows as
# sqrt(T / n), which gives the two models' scales below.
LOGLIK_SDS = 8.0


def lgss_loglik_sd(T: int, n: int) -> float:
    return math.sqrt(T / (5.0 * n))


def sv_loglik_sd(T: int, n: int) -> float:
    return math.sqrt(T / n)


def _seeds(seed: int, tag: int, count: int) -> list[int]:
    children = np.random.SeedSequence([seed, tag]).spawn(count)
    return [int(c.generate_state(1)[0]) for c in children]


class Workload:
    """Inputs from one seed, rounds of operations and their checks."""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        """Build the program's inputs and state: this is the timed set-up."""

    def prepare_references(self) -> None:
        """The benchmark's own reference computations, made after set-up is
        timed and before the first round."""

    def round(self, k: int) -> list:
        raise NotImplementedError

    def check(self, payload) -> list[str]:
        raise NotImplementedError

    def check_run(self) -> list[str]:
        return []


class LgssPmh(Workload):
    """Random-walk PMH chains for phi; the proposal set is built once."""

    def __init__(self, seed: int, out_dir: Path, T: int = 500,
                 n: int = 100, n_riesz: int = 100, iterations: int = 20):
        super().__init__(seed, out_dir)
        self.T, self.n, self.n_riesz = T, n, n_riesz
        self.iterations = iterations
        self.accepted = self.iterated = 0

    def setup(self) -> None:
        self.y = ref.simulate_lgss(PHI, SIGMA_V, SIGMA_O, self.T,
                                   LGSS_PMH_DATA_SEED)
        pset_seed, theta_seed, self.chain_root = _seeds(self.seed, 1, 3)
        self.theta_rng = np.random.default_rng(theta_seed)
        self.pset = rm.RieszProposalSet.standard_normal(
            self.n_riesz, RIESZ, rm.SamplerConfig(n_points=self.n_riesz,
                                                  seed=pset_seed))
        self.family = rm.LgssPhiFamily(SIGMA_V, SIGMA_O, 0.0)
        self.prior = rm.IndependentPrior((rm.TruncatedGaussianPrior(
            PRIOR_MEAN, PRIOR_STD, -1.0, 1.0),))

    def prepare_references(self) -> None:
        # exact posterior: the chains start from draws of it, so a chain's
        # mean is itself a posterior draw and can be checked against it
        grid, prob = ref.phi_posterior(self.y, SIGMA_V, SIGMA_O, PRIOR_MEAN,
                                       PRIOR_STD)
        self.post_mean = float(grid @ prob)
        self.post_sd = math.sqrt(float((grid - self.post_mean) ** 2 @ prob))
        self.grid, self.prob = grid, prob

    def round(self, k: int) -> list:
        theta0 = float(self.theta_rng.choice(self.grid, p=self.prob))
        chain_seed = _seeds(self.chain_root, k, 1)[0]
        return [lambda: self._chain(theta0, chain_seed)]

    def _chain(self, theta0: float, chain_seed: int):
        evals = []
        prior = _SupportLog(self.prior)

        def loglik(theta, rng):
            out = rm.run_filter(self.family.make_model(theta), self.y,
                                self.n, self.n_riesz, RIESZ, None, rng,
                                mode="frozen", proposal_set=self.pset)
            evals.append((float(theta[0]), out.log_likelihood))
            return out.log_likelihood

        cfg = rm.PmhConfig(iterations=self.iterations, burn_in=0,
                           step_sizes=[LGSS_PMH_STEP], n_particles=self.n,
                           n_riesz=self.n_riesz, seed=chain_seed)
        chain = rm.pmh_run(self.family, self.y, prior, cfg,
                           theta0=[theta0], loglik_fn=loglik)
        return self.iterations, (theta0, evals, prior.inside, chain)

    def check(self, payload) -> list[str]:
        theta0, evals, inside, chain = payload
        phi = chain.samples[:, 0]
        ll = chain.log_liks
        problems = check_pm_invariant(
            np.concatenate(([theta0], phi))[:, None],
            np.concatenate(([evals[0][1]], ll)), chain.accepted)
        if not np.all((phi > -1.0) & (phi < 1.0)):
            problems.append("phi outside the prior support (-1, 1)")
        evaluated = dict(evals)
        for i in np.flatnonzero(chain.accepted):
            if evaluated.get(float(phi[i])) != ll[i]:
                problems.append(f"row {i}: accepted log p-hat is not the "
                                "filter's estimate at that phi")
                break
        skipped = set(inside) - set(evaluated)
        if skipped:
            problems.append(f"{len(skipped)} phi inside the prior support "
                            "never reached the filter")
        _, _, exact = ref.kalman(phi, SIGMA_V, SIGMA_O, self.y)
        worst = float(np.max(np.abs(ll - exact)))
        if not worst <= LOGLIK_SDS * lgss_loglik_sd(self.T, self.n):
            problems.append(f"log p-hat off the Kalman value by {worst:.3f}")
        z = (phi.mean() - self.post_mean) / self.post_sd
        if not abs(z) <= 6.0:
            problems.append(f"chain mean {phi.mean():.4f} is {z:.1f} "
                            "posterior sds from the exact mean")
        if not problems:
            self.accepted += int(chain.accepted.sum())
            self.iterated += chain.accepted.shape[0]
        return problems

    def check_run(self) -> list[str]:
        return check_acceptance(self.accepted, self.iterated)


class LgssFilterWide(Workload):
    """Independent filter passes with many particles and a small set."""

    def __init__(self, seed: int, out_dir: Path, T: int = 500,
                 n: int = 5000, n_riesz: int = 100):
        super().__init__(seed, out_dir)
        self.T, self.n, self.n_riesz = T, n, n_riesz
        self.log_ratios: list[float] = []

    def setup(self) -> None:
        data_seed, pset_seed, self.filter_root = _seeds(self.seed, 2, 3)
        self.y = ref.simulate_lgss(PHI, SIGMA_V, SIGMA_O, self.T, data_seed)
        self.pset = rm.RieszProposalSet.standard_normal(
            self.n_riesz, RIESZ, rm.SamplerConfig(n_points=self.n_riesz,
                                                  seed=pset_seed))
        self.model = rm.LgssFilterModel(rm.LgssParams(PHI, SIGMA_V, SIGMA_O))

    def prepare_references(self) -> None:
        means, variances, loglik = ref.kalman(PHI, SIGMA_V, SIGMA_O, self.y)
        self.k_means, self.k_sds = means[0], np.sqrt(variances[0])
        self.k_loglik = float(loglik[0])

    def round(self, k: int) -> list:
        rng = np.random.default_rng(_seeds(self.filter_root, k, 1)[0])
        return [lambda: self._pass(rng)]

    def _pass(self, rng):
        out = rm.run_filter(self.model, self.y, self.n, self.n_riesz, RIESZ,
                            None, rng, mode="frozen", proposal_set=self.pset)
        return self.n * self.T, out

    def check(self, out) -> list[str]:
        problems = []
        d = out.log_likelihood - self.k_loglik
        if not abs(d) <= LOGLIK_SDS * lgss_loglik_sd(self.T, self.n):
            problems.append(f"log p-hat off the Kalman value by {d:.3f}")
        z = np.sqrt(np.mean(((out.filtered_means - self.k_means)
                             / self.k_sds) ** 2))
        if not z <= 0.25:
            problems.append(f"filtered means off Kalman by {z:.3f} "
                            "filter sds (RMS)")
        if not np.all((out.ess_trace > 0) & (out.ess_trace <= self.n + 1e-9)):
            problems.append("ESS outside (0, n]")
        if not problems:
            self.log_ratios.append(d)
        return problems

    def check_run(self) -> list[str]:
        """Unbiasedness: the mean of p-hat / p is within 5 SE of 1."""
        r = np.exp(np.array(self.log_ratios))
        if r.shape[0] < 2:
            return ["fewer than two passes to test unbiasedness on"]
        se = r.std(ddof=1) / math.sqrt(r.shape[0])
        if not abs(r.mean() - 1.0) <= 5.0 * se:
            return [f"mean p-hat/p = {r.mean():.4f} is more than 5 SE "
                    f"({se:.4f}) from 1"]
        return []


class RieszGenerate(Workload):
    """The greedy generator alone: a quantile-mapped and a direct weighted
    configuration on an N(0, 1) target per round."""

    def __init__(self, seed: int, out_dir: Path, n: int = 300):
        super().__init__(seed, out_dir)
        self.n = n

    def setup(self) -> None:
        self.target = rm.DensityOracle.gaussian(0.0, 1.0, HALF_WIDTH)
        (self.root,) = _seeds(self.seed, 3, 1)

    def round(self, k: int) -> list:
        qm_seed, direct_seed = _seeds(self.root, k, 2)
        return [lambda: self._quantile_mapped(qm_seed),
                lambda: self._direct(direct_seed)]

    def _quantile_mapped(self, seed: int):
        report = rm.quantile_mapped_configuration(
            self.target, ndtr, ndtri, RIESZ,
            rm.SamplerConfig(n_points=self.n, seed=seed))
        return report.configuration.n, ("quantile-mapped", report)

    def _direct(self, seed: int):
        report = rm.generate_configuration(
            self.target, RIESZ, rm.SamplerConfig(n_points=self.n, seed=seed))
        return report.configuration.n, ("direct", report)

    def check(self, payload) -> list[str]:
        kind, report = payload
        config = report.configuration
        x = config.points[:, 0]
        problems = []
        if config.n != self.n:
            problems.append(f"{config.n} points, expected {self.n}")
        if not np.all(np.diff(np.sort(x)) > 0.0):
            return problems + ["points are not distinct"]
        if not np.all(np.abs(x) <= HALF_WIDTH):
            problems.append("points outside the box")
        kappa = ref.kappa_gaussian(x, HALF_WIDTH)
        if not np.allclose(config.kappa_values, kappa, rtol=1e-12, atol=0):
            problems.append("kappa values differ from -log f + c0")
        energy = rm.config_energy(config, RIESZ)
        exact = ref.log_energy_extended(x, kappa, RIESZ.s, RIESZ.d,
                                        RIESZ.alpha, RIESZ.beta)
        if not abs(energy - exact) <= 1e-12 * abs(exact):
            problems.append(f"config_energy {energy!r} != extended-precision "
                            f"{exact!r}")
        # the quantile-mapped points follow N(0, 1) by construction; the
        # direct loop's points follow no law known in closed form
        if kind == "quantile-mapped":
            ks, level = ref.ks_statistic(x), ref.iid_ks_level(self.n)
            if not ks < level:
                problems.append(f"KS {ks:.4f} not below the iid median "
                                f"{level:.4f}")
        return problems


class SvPmhCli(Workload):
    """``rieszmc pmh-sv`` on the bundled price CSV, through ``cli.main``.

    The random-walk step of rho is 0.01, not the CLI's 0.05: with 0.05 the
    chain sits near rho = 0.97 and 10-25% of its proposals leave (-1, 1) and
    skip the filter, so an iteration's cost followed the seed (the rate's
    spread over ten seeds was 19%).  With 0.01 nearly every iteration runs
    one filter pass.
    """

    THETA0 = (0.0, 0.95, 0.2)
    STEPS = (1.0, 0.01, 0.03)

    def __init__(self, seed: int, out_dir: Path, iterations: int = 30,
                 n: int = 200, n_riesz: int = 180):
        super().__init__(seed, out_dir)
        self.iterations, self.n, self.n_riesz = iterations, n, n_riesz
        self.accepted = self.iterated = 0

    def setup(self) -> None:
        (self.root,) = _seeds(self.seed, 4, 1)
        self.config_path = self.out_dir / "pmh-sv.json"
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps({
            "input_path": str(SV_CSV), "iterations": self.iterations,
            "n_particles": self.n, "n_riesz": self.n_riesz,
            "theta0": list(self.THETA0), "step_sizes": list(self.STEPS)}))

    def prepare_references(self) -> None:
        self.dates, closes = ref.load_closes(SV_CSV)
        self.log_returns = np.diff(np.log(closes))

    def round(self, k: int) -> list:
        cli_seed = _seeds(self.root, k, 1)[0] % 2 ** 31
        return [lambda: self._call(cli_seed)]

    def _call(self, cli_seed: int):
        run_dir = self.out_dir / "pmh-sv"
        if run_dir.exists():
            shutil.rmtree(run_dir)
        try:
            cli.main(["pmh-sv", "--config", str(self.config_path),
                      "--seed", str(cli_seed), "--output", str(run_dir)])
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise RuntimeError(f"rieszmc pmh-sv exited {exc.code}") from None
        return self.iterations, run_dir

    def check(self, run_dir: Path) -> list[str]:
        rows = _read_csv(run_dir / "results.csv")
        theta = np.array([[float(r[c]) for c in ("mu", "rho", "sigma_v")]
                          for r in rows])
        ll = np.array([float(r["log_lik_hat"]) for r in rows])
        accepted = np.array([r["accepted"] == "1" for r in rows])
        summary = json.loads((run_dir / "summary.json").read_text())["results"]
        problems = []
        if theta.shape[0] != self.iterations:
            return [f"{theta.shape[0]} result rows, expected {self.iterations}"]
        if not np.all((np.abs(theta[:, 1]) < 1.0) & (theta[:, 2] > 0.0)):
            problems.append("theta outside the prior support")
        # the start's log p-hat is not written: row 0 gives it when row 0
        # was rejected, and it is unknown (NaN) otherwise
        first_ll = ll[0] if not accepted[0] else np.nan
        problems += check_pm_invariant(
            np.vstack((self.THETA0, theta)), np.concatenate(([first_ll], ll)),
            accepted)
        if not math.isclose(summary["acceptance_rate"], accepted.mean(),
                            rel_tol=1e-12):
            problems.append("summary acceptance rate != accepted share")
        burn = summary["burn_in"]
        post_mean = theta[burn:].mean(axis=0)
        reported = [summary["posterior_mean"][k]
                    for k in ("mu", "rho", "sigma_v")]
        if not np.allclose(reported, post_mean, rtol=1e-12, atol=1e-15):
            problems.append("summary posterior mean != mean of the rows")
        y = 100.0 * self.log_returns
        for i in sorted({0, theta.shape[0] - 1}):
            _, _, exact = ref.sv_grid_filter(y, *theta[i])
            if not abs(ll[i] - exact) <= LOGLIK_SDS * sv_loglik_sd(y.shape[0],
                                                                  self.n):
                problems.append(f"row {i}: log p-hat {ll[i]:.3f} vs grid "
                                f"filter {exact:.3f}")
        vol = _read_csv(run_dir / "plotdata" / "volatility.csv")
        if [r["date"] for r in vol] != self.dates[1:]:
            problems.append("volatility dates differ from the CSV's")
            return problems
        returns = np.array([float(r["log_return"]) for r in vol])
        if not np.allclose(returns, self.log_returns, rtol=1e-13, atol=0):
            problems.append("log returns differ from ln(p_t+1 / p_t)")
        mean, lo, hi = (np.array([float(r[c]) for r in vol])
                        for c in ("vol_mean", "lo95", "hi95"))
        if not np.all((lo <= mean) & (mean <= hi)):
            problems.append("filtered mean outside its 95% band")
        g_mean, g_sd, _ = ref.sv_grid_filter(y, *post_mean)
        z = float(np.sqrt(np.mean(((mean - g_mean) / g_sd) ** 2)))
        if not z <= SV_VOL_RMS_Z:
            problems.append(f"filtered log-volatility off the grid filter by "
                            f"{z:.3f} sds (RMS)")
        if not problems:
            self.accepted += int(accepted.sum())
            self.iterated += accepted.shape[0]
        return problems

    def check_run(self) -> list[str]:
        return check_acceptance(self.accepted, self.iterated)


# RMS distance, in filtered sds, allowed between the CLI's filtered
# log-volatility and the grid filter's.  The CLI reports the unweighted mean
# of the proposed particles, about 0.4 sd off on this data against 0.2 sd for
# the weighted mean, so this catches gross errors only.
SV_VOL_RMS_Z = 0.75


def check_acceptance(accepted: int, iterations: int) -> list[str]:
    """The pooled acceptance rate of a run's checked chains is inside
    ACCEPT_BAND."""
    lo, hi = ACCEPT_BAND
    if not iterations:
        return ["no chain passed its checks"]
    rate = accepted / iterations
    if not lo <= rate <= hi:
        return [f"pooled acceptance rate {rate:.3f} ({accepted} of "
                f"{iterations}) outside [{lo}, {hi}]"]
    return []


class _SupportLog:
    """A chain's prior that records every phi it finds inside its support,
    so the check can see that each of them reached the filter."""

    def __init__(self, prior):
        self.prior = prior
        self.inside: list[float] = []

    def log_prior(self, theta) -> float:
        lp = self.prior.log_prior(theta)
        if lp > -np.inf:
            self.inside.append(float(np.atleast_1d(theta)[0]))
        return lp


def check_pm_invariant(theta: np.ndarray, ll: np.ndarray,
                       accepted: np.ndarray) -> list[str]:
    """Pseudo-marginal invariant: a rejected row repeats the previous
    theta and log p-hat.  Row 0 of ``theta``/``ll`` is the chain's start
    (an unknown start log p-hat may be NaN); rows 1.. pair with
    ``accepted``."""
    for i, acc in enumerate(accepted):
        same_theta = np.array_equal(theta[i + 1], theta[i])
        if acc and same_theta:
            return [f"row {i}: accepted but theta did not move"]
        if not acc:
            if not same_theta:
                return [f"row {i}: rejected but theta changed"]
            if not (np.isnan(ll[i]) or ll[i + 1] == ll[i]):
                return [f"row {i}: rejected but log p-hat changed"]
    return []


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {
    "lgss-pmh": LgssPmh,
    "lgss-filter-wide": LgssFilterWide,
    "riesz-generate": RieszGenerate,
    "sv-pmh-cli": SvPmhCli,
}

# Runnable by name, but not in BENCHMARK.json: at n = 100 the chain is bound
# by per-call interpreter overhead, which the shared host's slow phases
# stretch the most, and its rate spread over ten runs reached 0.27 of its
# median, past the 0.25 bound (see README.md, "Reference figures").
UNLISTED = ("lgss-pmh",)
