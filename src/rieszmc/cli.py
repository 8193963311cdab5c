"""Command-line front end: config parsing, data ingestion and experiment runs.

Subcommands: generate-points | filter-lgss | pmh-lgss | pmh-sv | diagnostics.
Each run writes results.csv, summary.json and plotdata/*.csv into the output
directory.  Floats are emitted with 17 significant digits, so a fixed config
and seed reproduce results.csv byte for byte.

Config values arrive typed like their defaults (see ``_merge``).  The
``riesz``, ``sampler`` and ``proposal`` sections are the fields of
``RieszParams``, ``SamplerConfig`` and ``ProposalSpec``; a run that filters
builds one ``RieszProposalSet`` from them, and every filter pass of the run,
each chain's and the volatility filter's, draws through that one set.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from datetime import date as _date
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from .energy import (
    DensityOracle,
    RieszParams,
    config_energy,
    covering_radius,
    min_separation,
    uniformity_statistic,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyFile,
    MissingColumn,
    NonPositivePrice,
    RieszmcError,
)
from .pmh import (
    IndependentPrior,
    LgssPhiFamily,
    PmhConfig,
    SvFamily,
    TruncatedGaussianPrior,
    acf,
    pmh_run,
    posterior_summary,
)
from .sampler import SamplerConfig, generate_configuration, quantile_mapped_configuration
from .smc import (
    LgssFilterModel,
    ProposalSpec,
    RieszProposalSet,
    log_bias_mse,
    run_filter,
)
from .ssm import LgssParams, kalman_filter, lgss_simulate

EXPERIMENTS = ("generate-points", "filter-lgss", "pmh-lgss", "pmh-sv",
               "diagnostics")

# the library's own defaults; load_config deep-copies DEFAULTS before use
_RIESZ = asdict(RieszParams())
_SAMPLER = {f.name: f.default for f in fields(SamplerConfig)
            if f.name not in ("n_points", "seed")}
_PROPOSAL = asdict(ProposalSpec())

DEFAULTS = {
    "generate-points": {
        "n_points": 200,
        "target": "normal",
        "mean": 0.0,
        "std": 1.0,
        "half_width": 5.0,
        "box": [0.0, 1.0],
        "quantile_mapped": True,
        "covering_resolution": 1000,
        "riesz": _RIESZ,
        "sampler": _SAMPLER,
    },
    "filter-lgss": {
        "model": {"phi": 0.75, "sigma_v": 1.0, "sigma_o": 0.1, "x0": 0.0},
        "T": 250,
        "data_seed": 1,
        "n_values": [10, 20, 50, 100, 200, 500, 1000],
        "n_riesz": 100,
        "n_seeds": 10,
        "proposal": _PROPOSAL,
        "riesz": _RIESZ,
        "sampler": _SAMPLER,
    },
    "pmh-lgss": {
        "model": {"phi": 0.75, "sigma_v": 1.0, "sigma_o": 0.1, "x0": 0.0},
        "T": 250,
        "data_seed": 1,
        "iterations": 2000,
        "burn_in": None,
        "step_sizes": [0.1],
        "theta0": [0.75],
        "prior": {"mean": 0.75, "std": 0.5},
        "n_particles": 100,
        "n_riesz": 100,
        "max_lag": 50,
        "proposal": _PROPOSAL,
        "riesz": _RIESZ,
        "sampler": _SAMPLER,
    },
    "pmh-sv": {
        "returns_scale": 100.0,
        "iterations": 1500,
        "burn_in": None,
        "step_sizes": [1.0, 0.05, 0.03],
        "theta0": [0.0, 0.95, 0.2],
        "priors": {"mu": [0.0, 1.0], "rho": [0.95, 0.2],
                   "sigma_v": [0.2, 0.5]},
        "tau": 1.0,
        "n_particles": 200,
        "n_riesz": 180,
        "max_lag": 50,
        "proposal": _PROPOSAL,
        "riesz": _RIESZ,
        "sampler": _SAMPLER,
    },
    "diagnostics": {
        "n_values": [20, 50, 100, 200],
        "target": "normal",
        "mean": 0.0,
        "std": 1.0,
        "half_width": 5.0,
        "quantile_mapped": True,
        "covering_resolution": 1000,
        "riesz": _RIESZ,
        "sampler": _SAMPLER,
    },
}


@dataclass
class ExperimentConfig:
    """Fully merged experiment configuration."""

    experiment: str
    seed: int
    output_dir: Path
    input_path: Path | None
    options: dict


@dataclass
class ReturnsSeries:
    """Log returns ln(p_{t+1} / p_t) with the date each return realizes."""

    dates: list
    log_returns: np.ndarray

    def __post_init__(self):
        self.log_returns = np.asarray(self.log_returns, dtype=float)
        if len(self.dates) != self.log_returns.shape[0]:
            raise DataError("dates and log_returns must have equal length")


# ---------------------------------------------------------------------------
# configuration

_JSON_TYPES = ((type(None), "null"), (bool, "boolean"), (int, "integer"),
               (float, "number"), (str, "string"), (list, "array"),
               (dict, "object"))


def _json_type(value) -> str:
    return next(name for kind, name in _JSON_TYPES if isinstance(value, kind))


def _merge(default, given, path: str = ""):
    """``given`` merged over ``default`` at any depth, typed like the default.

    A key absent from the defaults, or a value whose JSON type differs from
    the default's, is a ConfigError naming its dotted path.  An integer
    default takes an integer or an integral number, returned as an int; a
    number default takes an integer or a number, returned as a float.  The
    null default (``burn_in``, a count) takes null or an integer.  A list
    must not be empty, and its items take the type of the default's items.
    """
    want, got = _json_type(default), _json_type(given)
    if want in ("integer", "null") and got == "number" and given.is_integer():
        given, got = int(given), "integer"
    elif want == "number" and got == "integer":
        if abs(given) > sys.float_info.max:
            raise ConfigError(f"config key {path} is out of range")
        given, got = float(given), "number"
    allowed = ("null", "integer") if want == "null" else (want,)
    if got not in allowed:
        raise ConfigError(f"config key {path} must be {' or '.join(allowed)}, "
                          f"not {got}")
    if want == "object":
        prefix = path + "." if path else ""
        unknown = sorted(prefix + key for key in set(given) - set(default))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        return {**default, **{key: _merge(default[key], value, prefix + key)
                              for key, value in given.items()}}
    if want == "array":
        if not given:
            raise ConfigError(f"config key {path} must not be empty")
        return [_merge(default[0], item, f"{path}[{i}]")
                for i, item in enumerate(given)]
    return given


def _pop_typed(raw: dict, key: str, example):
    """``raw[key]``, removed and typed like ``example``; null means absent."""
    value = raw.pop(key, None)
    return None if value is None else _merge(example, value, key)


def load_config(experiment: str, config_path=None, seed=None,
                output_dir=None) -> ExperimentConfig:
    """Merge defaults, the optional config file and CLI overrides."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{experiment}'")
    options = copy.deepcopy(DEFAULTS[experiment])
    file_seed = file_output = file_input = None
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        declared = raw.pop("experiment", None)
        if declared is not None and declared != experiment:
            raise ConfigError(
                f"config declares experiment '{declared}' but subcommand "
                f"is '{experiment}'"
            )
        file_seed = _pop_typed(raw, "seed", 0)
        file_output = _pop_typed(raw, "output_dir", "")
        file_input = _pop_typed(raw, "input_path", "")
        options = _merge(options, raw)
    final_seed = seed if seed is not None else (
        file_seed if file_seed is not None else 0)
    if not isinstance(final_seed, int) or final_seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    out_dir = Path(output_dir if output_dir is not None
                   else (file_output if file_output is not None else "out"))
    input_path = Path(file_input) if file_input is not None else None
    return ExperimentConfig(experiment, final_seed, out_dir, input_path,
                            options)


# ---------------------------------------------------------------------------
# serialization helpers

def format_float(x: float) -> str:
    """Floats rendered with 17 significant digits (round-trip exact)."""
    return f"{float(x):.17g}"


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    return str(v)


def _write_csv(path: Path, header: list, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _write_json(path: Path, obj: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# data ingestion

def bundled_prices_path() -> Path:
    """Path of the packaged 252-day sample price series."""
    return Path(str(resources.files("rieszmc").joinpath(
        "data/omxs30_sample.csv")))


def load_prices_csv(path) -> ReturnsSeries:
    """Read a date/close CSV and return the log-return transform.

    The header must contain columns named date and close (case-insensitive).
    Dates must increase strictly; a repeated or earlier date, like a
    non-finite or non-positive close, is rejected with its row number.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"prices file not found: {path}")
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader]
    rows = [row for row in rows if any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyFile(f"{path} has no rows")
    header = [cell.strip().lower() for cell in rows[0]]
    if "date" not in header:
        raise MissingColumn("no 'date' column in header")
    if "close" not in header:
        raise MissingColumn("no 'close' column in header")
    d_idx, c_idx = header.index("date"), header.index("close")
    dates = []
    closes = []
    last_day = None
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) <= max(d_idx, c_idx):
            raise DataError(f"row {row_no}: too few columns")
        raw_date = row[d_idx].strip()
        try:
            day = _date.fromisoformat(raw_date)
        except ValueError as exc:
            raise DataError(f"row {row_no}: date '{raw_date}' is not "
                            "ISO-8601") from exc
        if last_day is not None and day <= last_day:
            raise DataError(f"row {row_no}: date {raw_date} does not follow "
                            f"{dates[-1]}; dates must increase strictly")
        last_day = day
        try:
            close = float(row[c_idx])
        except ValueError as exc:
            raise DataError(f"row {row_no}: close '{row[c_idx]}' is not "
                            "numeric") from exc
        if not math.isfinite(close):
            raise DataError(f"row {row_no}: close '{row[c_idx]}' is not "
                            "finite")
        if close <= 0.0:
            raise NonPositivePrice(f"row {row_no}: close {close} <= 0")
        dates.append(raw_date)
        closes.append(close)
    if not closes:
        raise EmptyFile(f"{path} has a header but no data rows")
    if len(closes) < 2:
        raise DataError("need at least two closes to form a return")
    log_returns = np.diff(np.log(np.asarray(closes)))
    return ReturnsSeries(dates[1:], log_returns)


# ---------------------------------------------------------------------------
# experiment building blocks

def _child_seeds(ss: np.random.SeedSequence, k: int) -> list[int]:
    return [int(child.generate_state(1)[0]) for child in ss.spawn(k)]


def _build_target(options: dict):
    """Target oracle plus cdf/quantile transforms for named 1-D targets."""
    target = options["target"]
    if target == "normal":
        mean, std = options["mean"], options["std"]
        oracle = DensityOracle.gaussian(mean, std, options["half_width"])
        return (oracle,
                lambda x: ndtr((np.asarray(x) - mean) / std),
                lambda u: mean + std * ndtri(np.asarray(u)))
    if target == "uniform":
        lo, hi = options["box"]
        oracle = DensityOracle.uniform_box([lo], [hi])
        width = hi - lo
        return (oracle,
                lambda x: np.clip((np.asarray(x) - lo) / width, 0.0, 1.0),
                lambda u: lo + width * np.asarray(u))
    raise ConfigError(f"unknown target '{target}'")


def _riesz_params(options: dict) -> RieszParams:
    if options["riesz"]["d"] != 1:  # every configuration here is 1-D
        raise ConfigError("config key riesz.d must be 1")
    return RieszParams(**options["riesz"])


def _generate(options: dict, n_points: int, seed: int):
    oracle, cdf_fn, quantile_fn = _build_target(options)
    params = _riesz_params(options)
    cfg = SamplerConfig(n_points=n_points, seed=seed, **options["sampler"])
    if options["quantile_mapped"]:
        report = quantile_mapped_configuration(oracle, cdf_fn, quantile_fn,
                                               params, cfg)
    else:
        report = generate_configuration(oracle, params, cfg)
    return report, oracle, cdf_fn, quantile_fn, params


def _covering_resolution(options: dict) -> int:
    """Points of the grid the covering radius is measured on."""
    resolution = options["covering_resolution"]
    if resolution < 2:
        raise ConfigError("covering_resolution must be at least 2")
    return resolution


def _config_diagnostics(report, oracle, cdf_fn, params,
                        covering_resolution: int) -> dict:
    config = report.configuration
    grid = np.linspace(oracle.domain_low[0], oracle.domain_high[0],
                       covering_resolution)[:, None]
    n = config.n
    return {
        "n_points": n,
        "min_separation": min_separation(config),
        "covering_radius": covering_radius(config, grid),
        "ks_statistic": uniformity_statistic(config, cdf_fn),
        "log_energy": config_energy(config, params),
        "separation_product": (min_separation(config)
                               * n ** (1.0 / params.d + 2.0 / params.s)),
        "rejected_candidates": report.rejected_candidates,
    }


def _qq_pairs(config, quantile_fn):
    pts = np.sort(config.points[:, 0])
    n = pts.shape[0]
    theoretical = quantile_fn((np.arange(1, n + 1) - 0.5) / n)
    return list(zip(theoretical, pts))


def _proposal_set(opt: dict, seed: int) -> RieszProposalSet:
    """The run's one proposal set: n_riesz points from the riesz, sampler
    and proposal sections, generated with ``seed``."""
    n_riesz = opt["n_riesz"]
    return RieszProposalSet.standard_normal(
        n_riesz, _riesz_params(opt),
        SamplerConfig(n_points=n_riesz, seed=seed, **opt["sampler"]),
        ProposalSpec(**opt["proposal"]))


def _prior(key: str, mean, std, low=-np.inf, high=np.inf):
    """The truncated normal prior of config key ``key``; a std the library
    rejects is a ConfigError naming the key."""
    try:
        return TruncatedGaussianPrior(mean, std, low, high)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc


def _lgss_data(options: dict):
    """LGSS parameters, x0 and the simulated record of a config."""
    m = options["model"]
    params = LgssParams(m["phi"], m["sigma_v"], m["sigma_o"])
    traj = lgss_simulate(params, options["T"], m["x0"],
                         np.random.default_rng(options["data_seed"]))
    return params, m["x0"], traj


# ---------------------------------------------------------------------------
# experiments

def _run_generate_points(cfg: ExperimentConfig) -> dict:
    opt = cfg.options
    resolution = _covering_resolution(opt)
    report, oracle, cdf_fn, quantile_fn, params = _generate(
        opt, opt["n_points"], cfg.seed)
    config = report.configuration
    rows = [(i, config.points[i, 0], config.kappa_values[i])
            for i in range(config.n)]
    _write_csv(cfg.output_dir / "results.csv", ["index", "x", "kappa"], rows)
    _write_csv(cfg.output_dir / "plotdata" / "qq.csv",
               ["theoretical", "empirical"], _qq_pairs(config, quantile_fn))
    _write_csv(cfg.output_dir / "plotdata" / "energy_trace.csv",
               ["step", "log_energy"],
               list(enumerate(report.energy_trace, start=1)))
    return _config_diagnostics(report, oracle, cdf_fn, params, resolution)


def _run_diagnostics(cfg: ExperimentConfig) -> dict:
    opt = cfg.options
    resolution = _covering_resolution(opt)
    header = ["n", "min_separation", "covering_radius", "ks_statistic",
              "log_energy", "separation_product"]
    rows = []
    qq_rows = []
    summary_rows = []
    seeds = _child_seeds(np.random.SeedSequence(cfg.seed), len(opt["n_values"]))
    for n, seed in zip(opt["n_values"], seeds):
        report, oracle, cdf_fn, quantile_fn, params = _generate(opt, n, seed)
        diag = _config_diagnostics(report, oracle, cdf_fn, params,
                                   resolution)
        rows.append((n, diag["min_separation"], diag["covering_radius"],
                     diag["ks_statistic"], diag["log_energy"],
                     diag["separation_product"]))
        qq_rows.extend((n, t, e) for t, e in
                       _qq_pairs(report.configuration, quantile_fn))
        summary_rows.append(diag)
    _write_csv(cfg.output_dir / "results.csv", header, rows)
    _write_csv(cfg.output_dir / "plotdata" / "qq.csv",
               ["n", "theoretical", "empirical"], qq_rows)
    return {"rows": summary_rows}


def _run_filter_lgss(cfg: ExperimentConfig) -> dict:
    opt = cfg.options
    params, x0, traj = _lgss_data(opt)
    T, n_seeds = opt["T"], opt["n_seeds"]
    if n_seeds < 1:
        raise ConfigError("n_seeds must be at least 1")
    oracle_out = kalman_filter(params, traj.observations, x0, 0.0)
    model = LgssFilterModel(params, x0)
    ss = np.random.SeedSequence(cfg.seed)
    pset = _proposal_set(opt, *_child_seeds(ss, 1))
    rows = []
    rep_output = None
    for n in opt["n_values"]:
        filtered = []
        for child in ss.spawn(n_seeds):
            rng = np.random.default_rng(child)
            out = run_filter(model, traj.observations, n, pset.size, None,
                             None, rng, proposal_set=pset,
                             record_percentiles=rep_output is None)
            if rep_output is None:
                rep_output = out
            filtered.append(out.filtered_means)
        rows.append((n, *log_bias_mse(
            np.concatenate(filtered),
            np.tile(oracle_out.filtered_means, n_seeds))))
    _write_csv(cfg.output_dir / "results.csv", ["n", "log_bias", "log_mse"],
               rows)
    _write_csv(
        cfg.output_dir / "plotdata" / "filtered.csv",
        ["t", "observation", "kalman_mean", "filtered_mean", "lo95", "hi95"],
        [(t + 1, traj.observations[t], oracle_out.filtered_means[t],
          rep_output.filtered_means[t], rep_output.percentile_lo[t],
          rep_output.percentile_hi[t]) for t in range(T)],
    )
    _write_csv(cfg.output_dir / "plotdata" / "ess.csv", ["t", "ess"],
               [(t + 1, rep_output.ess_trace[t]) for t in range(T)])
    return {
        "rows": [{"n": n, "log_bias": lb, "log_mse": lm}
                 for n, lb, lm in rows],
        "kalman_log_likelihood": oracle_out.log_likelihood,
        "n_seeds": n_seeds,
        "T": T,
    }


def _pmh_common(opt: dict) -> tuple[int, int, int]:
    iterations = opt["iterations"]
    burn_in = opt["burn_in"]
    if burn_in is None:
        burn_in = iterations // 4
    if not 0 <= burn_in < iterations:
        raise ConfigError("burn_in must lie in [0, iterations)")
    if opt["max_lag"] < 0:
        raise ConfigError("max_lag must be nonnegative")
    max_lag = min(opt["max_lag"], iterations - burn_in - 1)
    return iterations, burn_in, max_lag


def _pmh_chain(opt: dict, family, y, prior, burn_in: int, step_sizes,
               seed: int, pset: RieszProposalSet):
    chain_cfg = PmhConfig(iterations=opt["iterations"], burn_in=burn_in,
                          step_sizes=step_sizes,
                          n_particles=opt["n_particles"],
                          n_riesz=opt["n_riesz"], seed=seed)
    return pmh_run(family, y, prior, chain_cfg, theta0=opt["theta0"],
                   proposal_set=pset)


def _run_pmh_lgss(cfg: ExperimentConfig) -> dict:
    opt = cfg.options
    params, x0, traj = _lgss_data(opt)
    family = LgssPhiFamily(params.sigma_v, params.sigma_o, x0)
    prior = IndependentPrior((_prior(
        "prior.std", opt["prior"]["mean"], opt["prior"]["std"], -1.0, 1.0),))
    iterations, burn_in, max_lag = _pmh_common(opt)
    results = []
    trace_rows = []
    acf_rows = []
    chains_summary = []
    step_sizes = opt["step_sizes"]
    *chain_seeds, pset_seed = _child_seeds(np.random.SeedSequence(cfg.seed),
                                           len(step_sizes) + 1)
    pset = _proposal_set(opt, pset_seed)
    for h, seed in zip(step_sizes, chain_seeds):
        chain = _pmh_chain(opt, family, traj.observations, prior, burn_in,
                           [h], seed, pset)
        mean, var = posterior_summary(chain, burn_in)
        lags = acf(chain.samples[burn_in:, 0], max_lag)
        results.extend((h, it, chain.samples[it, 0],
                        bool(chain.accepted[it]), chain.log_liks[it])
                       for it in range(iterations))
        trace_rows.extend((h, it, chain.samples[it, 0])
                          for it in range(iterations))
        acf_rows.extend((h, lag, lags[lag]) for lag in range(max_lag + 1))
        chains_summary.append({
            "step_size": h,
            "posterior_mean": {"phi": float(mean[0])},
            "posterior_variance": {"phi": float(var[0])},
            "acceptance_rate": chain.acceptance_rate,
        })
    _write_csv(cfg.output_dir / "results.csv",
               ["step_size", "iteration", "phi", "accepted", "log_lik_hat"],
               results)
    _write_csv(cfg.output_dir / "plotdata" / "trace.csv",
               ["step_size", "iteration", "phi"], trace_rows)
    _write_csv(cfg.output_dir / "plotdata" / "acf.csv",
               ["step_size", "lag", "acf"], acf_rows)
    return {"chains": chains_summary, "burn_in": burn_in,
            "iterations": iterations, "T": opt["T"]}


def _run_pmh_sv(cfg: ExperimentConfig) -> dict:
    opt = cfg.options
    path = cfg.input_path if cfg.input_path is not None else bundled_prices_path()
    series = load_prices_csv(path)
    y = series.log_returns * opt["returns_scale"]
    family = SvFamily(tau=opt["tau"])
    (mu_mean, mu_std), (rho_mean, rho_std), (sv_mean, sv_std) = (
        opt["priors"][name] for name in SvFamily.theta_names)
    prior = IndependentPrior((
        _prior("priors.mu", mu_mean, mu_std),
        _prior("priors.rho", rho_mean, rho_std, -1.0, 1.0),
        _prior("priors.sigma_v", sv_mean, sv_std, 0.0, np.inf),
    ))
    iterations, burn_in, max_lag = _pmh_common(opt)
    chain_seed, vol_seed, pset_seed = _child_seeds(
        np.random.SeedSequence(cfg.seed), 3)
    pset = _proposal_set(opt, pset_seed)
    chain = _pmh_chain(opt, family, y, prior, burn_in, opt["step_sizes"],
                       chain_seed, pset)
    mean, var = posterior_summary(chain, burn_in)
    names = SvFamily.theta_names
    _write_csv(cfg.output_dir / "results.csv",
               ["iteration", "mu", "rho", "sigma_v", "accepted",
                "log_lik_hat"],
               [(it, *chain.samples[it], bool(chain.accepted[it]),
                 chain.log_liks[it]) for it in range(iterations)])
    _write_csv(cfg.output_dir / "plotdata" / "trace.csv",
               ["iteration", "mu", "rho", "sigma_v"],
               [(it, *chain.samples[it]) for it in range(iterations)])
    acf_rows = []
    for j, name in enumerate(names):
        lags = acf(chain.samples[burn_in:, j], max_lag)
        acf_rows.extend((name, lag, lags[lag]) for lag in range(max_lag + 1))
    _write_csv(cfg.output_dir / "plotdata" / "acf.csv",
               ["parameter", "lag", "acf"], acf_rows)
    # filtered log-volatility with 95% interval at the posterior mean
    vol = run_filter(family.make_model(mean), y, opt["n_particles"],
                     pset.size, None, None, np.random.default_rng(vol_seed),
                     proposal_set=pset, record_percentiles=True)
    _write_csv(cfg.output_dir / "plotdata" / "volatility.csv",
               ["date", "log_return", "vol_mean", "lo95", "hi95"],
               [(series.dates[t], series.log_returns[t],
                 vol.filtered_means[t], vol.percentile_lo[t],
                 vol.percentile_hi[t]) for t in range(len(y))])
    return {
        "posterior_mean": {n: float(v) for n, v in zip(names, mean)},
        "posterior_variance": {n: float(v) for n, v in zip(names, var)},
        "acceptance_rate": chain.acceptance_rate,
        "burn_in": burn_in,
        "iterations": iterations,
        "n_observations": len(y),
        "returns_scale": opt["returns_scale"],
    }


_RUNNERS = {
    "generate-points": _run_generate_points,
    "filter-lgss": _run_filter_lgss,
    "pmh-lgss": _run_pmh_lgss,
    "pmh-sv": _run_pmh_sv,
    "diagnostics": _run_diagnostics,
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status.

    On failure a machine-readable error JSON is printed to stderr.  The
    library's constructors reject out-of-range options with ValueError;
    every option comes from the config, so those exit as config errors.
    """
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        results = _RUNNERS[cfg.experiment](cfg)
        summary = {
            "experiment": cfg.experiment,
            "seed": cfg.seed,
            "runtime_seconds": time.perf_counter() - started,
            "results": results,
        }
        _write_json(cfg.output_dir / "summary.json", summary)
        return 0
    except RieszmcError as exc:
        if isinstance(exc, ConfigError):
            code = 2
        elif isinstance(exc, DataError):
            code = 3
        else:
            code = 4
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": code}), file=sys.stderr)
        return code
    except ValueError as exc:
        print(json.dumps({"error": "ConfigError",
                          "message": f"invalid configuration: {exc}",
                          "exit_code": 2}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": 3}), file=sys.stderr)
        return 3


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="rieszmc",
        description="Riesz-particle SMC/PMH experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON config file (defaults apply otherwise)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the experiment seed")
        p.add_argument("--output", default=None,
                       help="output directory (default 'out')")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.experiment, args.config, args.seed,
                          args.output)
    except ConfigError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": 2}), file=sys.stderr)
        sys.exit(2)
    sys.exit(run_experiment(cfg))


if __name__ == "__main__":
    main()
