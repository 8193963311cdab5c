"""Fast tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

A tiny-size smoke run of each workload must pass its checks, and each check
must report a failure when the output it judges is corrupted.
"""

from __future__ import annotations

import copy
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import reference as ref  # noqa: E402
import rieszmc as rm  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

TINY = {
    "lgss-pmh": dict(T=60, n=30, n_riesz=20, iterations=6),
    "lgss-filter-wide": dict(T=60, n=300, n_riesz=20),
    "riesz-generate": dict(n=30),
    "sv-pmh-cli": dict(iterations=6, n=100, n_riesz=20),
}


def _tiny(name, tmp_path, seed=3):
    return wl.WORKLOADS[name](seed, tmp_path / name, **TINY[name])


def _ops(workload, rounds=2):
    workload.setup()
    workload.prepare_references()
    return [op()[1] for k in range(rounds) for op in workload.round(k)]


# ---------------------------------------------------------------------------
# smoke runs

@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_every_check(name, tmp_path):
    log = io.StringIO()
    res = run.run(_tiny(name, tmp_path), seconds=0.0, log=log)
    assert res["attempted"] >= run.MIN_ROUNDS
    assert res["failed"] == 0, log.getvalue()
    assert res["correct"], log.getvalue()
    assert res["work_per_s"] > 0 and res["timed_s"] > 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        res = run.run(_tiny("lgss-pmh", tmp_path), 0.0, tracer)
    finally:
        tracer.restore()
    assert rm.run_filter.__name__ == "run_filter"
    assert not hasattr(rm.run_filter, "__wrapped__")
    values = tracer.summary(res["traced_ops"])
    assert res["failed"] == 0 and res["attempted"] == 2
    # round 0 runs traced and round 1 untraced, for the overhead
    assert res["traced_ops"] == 1
    assert res["work_per_s"] > 0 and res["traced_work_per_s"] > 0
    # per operation: one chain, its filter passes, and no generation
    assert values["pmh.iterations"] == TINY["lgss-pmh"]["iterations"]
    assert values["smc.run_filter.calls"] == values["pmh.filter_evals"] > 0
    assert values["smc.steps"] == values["smc.run_filter.calls"] * 60
    assert values.get("sampler.placed", 0.0) == 0 < values["setup.sampler.busy_s"]
    for layer in ("smc", "pmh", "ssm"):
        assert 0 < values[f"{layer}.self_s"] <= values[f"{layer}.busy_s"] + 1e-9
    # a run_filter span encloses its proposal draws
    recs = tracer.records()
    names = np.array(tracer.names)[recs[:, 2]]
    filt_ids = set(recs[names == "smc.run_filter", 0])
    assert set(recs[names == "smc.RieszProposalSet.sample", 1]) <= filt_ids
    assert {m for m, _, _ in PER_LAYER} >= {
        "energy.pair_terms", "smc.ess_mean_frac", "cli.bytes_written"}


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lgss-pmh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# each check reports a corrupted output

@pytest.fixture(scope="module")
def filter_wide(tmp_path_factory):
    w = _tiny("lgss-filter-wide", tmp_path_factory.mktemp("fw"))
    return w, _ops(w)


def test_shifted_filtered_means_fail(filter_wide):
    w, outs = filter_wide
    bad = copy.deepcopy(outs[0])
    bad.filtered_means = bad.filtered_means + 0.05
    assert w.check(outs[0]) == []
    assert any("filtered means" in p for p in w.check(bad))


def test_forged_filter_loglik_fails(filter_wide):
    w, outs = filter_wide
    bad = copy.deepcopy(outs[0])
    bad.log_likelihood += 3.0
    assert any("Kalman" in p for p in w.check(bad))


def test_biased_likelihood_fails_unbiasedness(filter_wide):
    w, _ = filter_wide
    rng = np.random.default_rng(0)
    w.log_ratios = list(0.3 + 0.05 * rng.standard_normal(10))
    assert w.check_run()
    w.log_ratios = list(0.05 * rng.standard_normal(10) - 0.05 ** 2 / 2)
    assert w.check_run() == []


@pytest.fixture(scope="module")
def lgss_chain(tmp_path_factory):
    w = _tiny("lgss-pmh", tmp_path_factory.mktemp("pmh"))
    return w, _ops(w)


def _rejected_row(chain):
    rows = np.flatnonzero(~chain.accepted[1:]) + 1
    assert rows.size, "the tiny chain rejected nothing"
    return int(rows[0])


def test_forged_loglik_on_rejected_row_fails(lgss_chain):
    w, payloads = lgss_chain
    theta0, evals, inside, chain = payloads[0]
    assert w.check(payloads[0]) == []
    bad = copy.deepcopy(chain)
    bad.log_liks[_rejected_row(chain)] += 0.5
    assert any("rejected but log p-hat" in p
               for p in w.check((theta0, evals, inside, bad)))


def test_moved_theta_on_rejected_row_fails(lgss_chain):
    w, payloads = lgss_chain
    theta0, evals, inside, chain = payloads[0]
    bad = copy.deepcopy(chain)
    bad.samples[_rejected_row(chain), 0] += 0.01
    assert w.check((theta0, evals, inside, bad))


def test_theta_outside_support_fails(lgss_chain):
    w, payloads = lgss_chain
    theta0, evals, inside, chain = payloads[0]
    bad = copy.deepcopy(chain)
    bad.samples[:, 0] = 1.2
    assert any("support" in p for p in w.check((theta0, evals, inside, bad)))


def test_chain_far_from_exact_posterior_fails(lgss_chain):
    w, payloads = lgss_chain
    theta0, evals, inside, chain = payloads[0]
    bad = copy.deepcopy(chain)
    bad.samples[:, 0] = w.post_mean - 7 * w.post_sd
    assert any("posterior sds" in p for p in w.check((theta0, evals, inside, bad)))


def test_filter_skipped_for_a_phi_in_support_fails(lgss_chain):
    w, payloads = lgss_chain
    theta0, evals, inside, chain = payloads[0]
    assert any("never reached the filter" in p
               for p in w.check((theta0, evals, inside + [0.123], chain)))


def test_chain_that_never_accepts_fails_the_run(lgss_chain):
    w, payloads = lgss_chain
    assert w.check_run() == []
    theta0, evals, inside, chain = payloads[0]
    bad = copy.deepcopy(chain)
    bad.accepted[:] = False
    bad.samples[:, 0] = theta0
    bad.log_liks[:] = evals[0][1]
    saved = w.accepted, w.iterated
    w.accepted = w.iterated = 0
    try:
        for _ in range(3):
            assert w.check((theta0, evals[:1], [theta0], bad)) == []
        assert any("acceptance rate" in p for p in w.check_run())
    finally:
        w.accepted, w.iterated = saved


def test_acceptance_band():
    assert wl.check_acceptance(27, 100) == []
    assert wl.check_acceptance(0, 100) and wl.check_acceptance(100, 100)
    assert wl.check_acceptance(0, 0)


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    w = _tiny("riesz-generate", tmp_path_factory.mktemp("gen"))
    return w, _ops(w, rounds=1)


def _with_points(report, x):
    bad = copy.deepcopy(report)
    bad.configuration.points = np.asarray(x, dtype=float).reshape(-1, 1)
    bad.configuration.kappa_values = ref.kappa_gaussian(np.asarray(x),
                                                        wl.HALF_WIDTH)
    return bad


def test_generated_configurations_pass(configs):
    w, payloads = configs
    assert [kind for kind, _ in payloads] == ["quantile-mapped", "direct"]
    for payload in payloads:
        assert w.check(payload) == []


def test_moved_point_fails(configs, monkeypatch):
    w, payloads = configs
    kind, report = payloads[1]
    x = report.configuration.points[:, 0].copy()
    x[3] = 5.5
    monkeypatch.setattr(wl.rm, "config_energy", lambda c, p: 0.0)
    problems = w.check((kind, _with_points(report, x)))
    assert any("outside the box" in p for p in problems)
    x[3] = x[4]
    problems = w.check((kind, _with_points(report, x)))
    assert any("not distinct" in p for p in problems)


def test_perturbed_energy_fails(configs, monkeypatch):
    w, payloads = configs
    exact = rm.config_energy
    monkeypatch.setattr(wl.rm, "config_energy",
                        lambda c, p: exact(c, p) * (1 + 1e-9))
    assert any("config_energy" in p for p in w.check(payloads[0]))


def test_clumped_points_fail_ks(configs):
    w, payloads = configs
    kind, report = payloads[0]
    x = np.linspace(0.0, 1.0, report.configuration.n)
    assert any("KS" in p for p in w.check((kind, _with_points(report, x))))


def test_iid_ks_level_is_the_exact_median():
    from scipy.stats import kstwo

    for n in (30, 300):
        assert abs(ref.iid_ks_level(n) / kstwo.ppf(0.5, n) - 1) < 0.01


def test_reference_energy_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    x = np.array([-1.3, -0.2, 0.05, 0.9, 2.4])
    k = ref.kappa_gaussian(x, wl.HALF_WIDTH)
    with mp.workdps(50):
        terms = [(mp.mpf(k[i]) * mp.mpf(k[j]) + 2 * abs(mp.mpf(x[i]) - mp.mpf(x[j])))
                 ** -20 - 40 * mp.log(abs(mp.mpf(x[i]) - mp.mpf(x[j])))
                 for i in range(5) for j in range(i + 1, 5)]
        top = max(terms)
        exact = float((top + mp.log(mp.fsum(mp.exp(t - top) for t in terms))) / 40)
    got = ref.log_energy_extended(x, k, s=40.0, d=1, alpha=1.0, beta=2.0)
    assert abs(got - exact) <= 1e-15 * abs(exact)


@pytest.fixture(scope="module")
def sv_run(tmp_path_factory):
    w = _tiny("sv-pmh-cli", tmp_path_factory.mktemp("sv"))
    w.setup()
    w.prepare_references()
    _, run_dir = w.round(0)[0]()
    keep = run_dir.parent / "kept"
    shutil.copytree(run_dir, keep)
    return w, keep


def _edit(src: Path, dst: Path, rel: str, column: str, fn, rows=None):
    shutil.copytree(src, dst)
    path = dst / rel
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    j = header.index(column)
    for i in range(1, len(lines)):
        if rows is None or i - 1 in rows:
            cells = lines[i].split(",")
            cells[j] = fn(cells[j])
            lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return dst


def test_sv_cli_output_passes(sv_run):
    w, run_dir = sv_run
    assert w.check(run_dir) == []


def test_sv_shifted_volatility_fails(sv_run, tmp_path):
    w, run_dir = sv_run
    bad = _edit(run_dir, tmp_path / "bad", "plotdata/volatility.csv",
                "vol_mean", lambda v: repr(float(v) + 1.0))
    assert any("grid filter" in p or "95% band" in p for p in w.check(bad))


def test_sv_forged_loglik_on_rejected_row_fails(sv_run, tmp_path):
    w, run_dir = sv_run
    rows = wl._read_csv(run_dir / "results.csv")
    rejected = [i for i, r in enumerate(rows) if r["accepted"] == "0" and i > 0]
    assert rejected, "the tiny chain rejected nothing"
    bad = _edit(run_dir, tmp_path / "bad", "results.csv", "log_lik_hat",
                lambda v: repr(float(v) + 0.5), rows={rejected[0]})
    assert any("rejected but log p-hat" in p for p in w.check(bad))


def test_sv_chain_that_never_accepts_fails_the_run(sv_run, tmp_path):
    w, run_dir = sv_run
    rows = wl._read_csv(run_dir / "results.csv")
    start_ll = next(r["log_lik_hat"] for r in rows if r["accepted"] == "0")
    bad = _edit(run_dir, tmp_path / "bad", "results.csv", "accepted",
                lambda v: "0")
    for column, value in zip(("mu", "rho", "sigma_v"), w.THETA0):
        bad = _edit(bad, tmp_path / f"bad-{column}", "results.csv", column,
                    lambda v, value=value: repr(value))
    bad = _edit(bad, tmp_path / "bad-ll", "results.csv", "log_lik_hat",
                lambda v: start_ll)
    summary = json.loads((bad / "summary.json").read_text())
    summary["results"]["acceptance_rate"] = 0.0
    summary["results"]["posterior_mean"] = dict(zip(
        ("mu", "rho", "sigma_v"), w.THETA0))
    (bad / "summary.json").write_text(json.dumps(summary))
    w.accepted = w.iterated = 0
    assert w.check(bad) == []
    assert any("acceptance rate" in p for p in w.check_run())


def test_sv_wrong_log_returns_fail(sv_run, tmp_path):
    w, run_dir = sv_run
    bad = _edit(run_dir, tmp_path / "bad", "plotdata/volatility.csv",
                "log_return", lambda v: repr(float(v) * 1.001), rows={5})
    assert any("log returns" in p for p in w.check(bad))


def test_sv_grid_filter_matches_quadrature_at_one_step():
    """After one observation the grid filter's likelihood and filtered mean
    equal the one-dimensional integrals over the stationary x_1."""
    from scipy.integrate import quad

    mu, rho, sigma_v, y1 = -0.4, 0.9, 0.3, 1.7
    sd0 = sigma_v / np.sqrt(1 - rho ** 2)

    def joint(x):
        var = np.exp(x)
        return (np.exp(-0.5 * y1 * y1 / var) / np.sqrt(2 * np.pi * var)
                * np.exp(-0.5 * ((x - mu) / sd0) ** 2) / (sd0 * np.sqrt(2 * np.pi)))

    lo, hi = mu - 12 * sd0, mu + 12 * sd0
    z = quad(joint, lo, hi, epsabs=0, epsrel=1e-12, limit=200)[0]
    m = quad(lambda x: x * joint(x), lo, hi, epsabs=0, epsrel=1e-12,
             limit=200)[0] / z
    means, _, loglik = ref.sv_grid_filter(np.array([y1]), mu, rho, sigma_v)
    assert abs(loglik - np.log(z)) < 1e-9
    assert abs(means[0] - m) < 1e-9


def test_benchmark_json_matches_per_layer_list():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(set(wl.WORKLOADS) - set(wl.UNLISTED))
