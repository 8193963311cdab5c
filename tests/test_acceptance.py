"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp, ndtr, ndtri

import rieszmc as rm
from rieszmc.cli import load_config, main, run_experiment

PAPER_LGSS = rm.LgssParams(phi=0.75, sigma_v=1.0, sigma_o=0.1)
RP40 = rm.RieszParams(s=40.0, d=1, alpha=1.0, beta=2.0)

# data realization for the posterior-reproduction chain: pinned so the exact
# (grid-integrated) posterior sits inside the band targets; the chain's
# Monte Carlo error is small against the +-0.12 tolerance
CHAIN_BENCH_DATA_SEED = 11
FILTER_BENCH_DATA_SEED = 1


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {criterion}: "
          f"{'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_filter_accuracy_trend():
    """LGSS log-MSE vs Kalman inside the reference bands, decreasing in n."""
    started = time.perf_counter()
    targets = {10: -6.94, 100: -9.27, 1000: -11.44}
    traj = rm.lgss_simulate(PAPER_LGSS, 250, 0.0,
                            np.random.default_rng(FILTER_BENCH_DATA_SEED))
    kalman = rm.kalman_filter(PAPER_LGSS, traj.observations, 0.0, 0.0)
    model = rm.LgssFilterModel(PAPER_LGSS, 0.0)
    scfg = rm.SamplerConfig(n_points=100, seed=0)
    got = {}
    bias = {}
    ss = np.random.SeedSequence(2024)
    for n in (10, 100, 1000):
        sq = []
        ab = []
        for child in ss.spawn(10):
            rng = np.random.default_rng(child)
            pset = rm.RieszProposalSet.standard_normal(
                100, RP40, rm.SamplerConfig(
                    n_points=100, seed=int(child.generate_state(1)[0])))
            out = rm.run_filter(model, traj.observations, n, 100, RP40,
                                scfg, rng, mode="frozen", proposal_set=pset)
            err = out.filtered_means - kalman.filtered_means
            sq.append(np.mean(err ** 2))
            ab.append(np.mean(np.abs(err)))
        got[n] = float(np.log(np.mean(sq)))
        bias[n] = float(np.log(np.mean(ab)))
    elapsed = time.perf_counter() - started
    in_band = all(abs(got[n] - targets[n]) <= 1.0 for n in targets)
    decreasing = got[10] > got[100] > got[1000]
    bias_band = abs(bias[100] - (-4.87)) <= 1.0
    ok = in_band and decreasing and bias_band and elapsed < 300.0
    _report(1, ok, "log-MSE " + ", ".join(
        f"n={n}: {got[n]:.2f} (target {targets[n]:+.2f})" for n in targets)
        + f"; log-bias n=100: {bias[100]:.2f} (target -4.87)"
        + f"; runtime {elapsed:.0f}s")
    assert in_band, f"log-MSE outside +-1.0 band: {got}"
    assert decreasing, f"log-MSE not strictly decreasing: {got}"
    assert bias_band, f"log-bias at n=100 outside +-1.0 of -4.87: {bias}"
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 minutes"


def test_criterion_2_posterior_reproduction():
    """PMH posterior for phi near the reference values, variance decreasing in T."""
    started = time.perf_counter()
    targets = {10: 0.587, 100: 0.712, 500: 0.722}
    traj = rm.lgss_simulate(PAPER_LGSS, 500, 0.0,
                            np.random.default_rng(CHAIN_BENCH_DATA_SEED))
    family = rm.LgssPhiFamily(1.0, 0.1, 0.0)
    prior = rm.LgssPhiFamily.default_prior()
    means, variances = {}, {}
    for T in (10, 100, 500):
        cfg = rm.PmhConfig(iterations=5000, burn_in=1250, step_sizes=[0.1],
                           n_particles=100, n_riesz=100, seed=900 + T)
        chain = rm.pmh_run(family, traj.observations[:T], prior, cfg,
                           theta0=[0.75])
        mean, var = rm.posterior_summary(chain, cfg.burn_in)
        means[T], variances[T] = float(mean[0]), float(var[0])
    elapsed = time.perf_counter() - started
    in_band = all(abs(means[T] - targets[T]) <= 0.12 for T in targets)
    var_monotone = variances[10] > variances[100] > variances[500]
    var_final = variances[500] <= 0.01
    ok = in_band and var_monotone and var_final and elapsed < 600.0
    _report(2, ok, ", ".join(
        f"T={T}: mean {means[T]:.3f} (target {targets[T]:.3f}) "
        f"var {variances[T]:.4f}" for T in targets)
        + f"; runtime {elapsed:.0f}s")
    assert in_band, f"posterior means outside +-0.12: {means}"
    assert var_monotone, f"variance not decreasing: {variances}"
    assert var_final, f"final variance {variances[500]} > 0.01"
    assert elapsed < 600.0, f"runtime {elapsed:.0f}s exceeds 10 minutes"


def test_criterion_3_likelihood_unbiasedness():
    """mean p-hat within 2 SE of the Kalman likelihood; variance shrinks."""
    traj = rm.lgss_simulate(PAPER_LGSS, 50, 0.0, np.random.default_rng(42))
    kalman = rm.kalman_filter(PAPER_LGSS, traj.observations, 0.0, 0.0)
    model = rm.LgssFilterModel(PAPER_LGSS, 0.0)
    scfg = rm.SamplerConfig(n_points=100, seed=0)
    pset = rm.RieszProposalSet.standard_normal(100, RP40, scfg)
    ratios = []
    for seed in range(50):
        out = rm.run_filter(model, traj.observations, 500, 100, RP40, scfg,
                            np.random.default_rng(7000 + seed),
                            mode="frozen", proposal_set=pset)
        ratios.append(math.exp(out.log_likelihood - kalman.log_likelihood))
    ratios = np.array(ratios)
    se = ratios.std(ddof=1) / math.sqrt(len(ratios))
    unbiased = abs(ratios.mean() - 1.0) <= 2 * se
    log_var = {}
    for n in (10, 1000):
        lls = [rm.run_filter(model, traj.observations, n, 100, RP40, scfg,
                             np.random.default_rng(9000 + s), mode="frozen",
                             proposal_set=pset).log_likelihood
               for s in range(20)]
        log_var[n] = float(np.var(lls, ddof=1))
    shrinks = log_var[1000] < log_var[10]
    ok = unbiased and shrinks
    _report(3, ok, f"mean p-hat/p = {ratios.mean():.4f} +- {se:.4f} (2 SE); "
            f"var log p-hat: n=10 {log_var[10]:.3f} -> n=1000 "
            f"{log_var[1000]:.4f}")
    assert unbiased, f"mean ratio {ratios.mean()} off 1 by > 2 SE ({se})"
    assert shrinks, f"variance did not shrink: {log_var}"


def test_criterion_4_greedy_matches_bruteforce_argmin():
    """propose_next_point equals the exhaustive argmin on a fixed grid."""
    oracle = rm.DensityOracle.uniform_box([0.0], [1.0])
    grid = np.linspace(0.0, 1.0, 101)[:, None]
    cfg = rm.SamplerConfig(n_points=2, refine_iters=0)
    rng = np.random.default_rng(0)
    exact_matches = 0
    for case in range(100):
        pts = np.sort(rng.uniform(0, 1, size=5))
        while np.diff(pts).min() < 1e-3:
            pts = np.sort(rng.uniform(0, 1, size=5))
        config = rm.PointConfiguration.from_points(pts, oracle)
        got = rm.propose_next_point(config, oracle, RP40, cfg, rng,
                                    candidates=grid)
        # independent brute force with raw arithmetic
        kappas = config.kappa_values
        best_idx, best_val = None, np.inf
        for gi in range(grid.shape[0]):
            cand = grid[gi, 0]
            r = np.abs(pts - cand)
            if r.min() < RP40.eps_dist:
                continue
            k_c = float(oracle.kappa(np.array([cand])))
            bracket = kappas * k_c + 2.0 * r
            terms = bracket ** (-20.0) - 40.0 * np.log(r)
            val = float(logsumexp(terms))
            if val < best_val:
                best_idx, best_val = gi, val
        if got[0] == grid[best_idx, 0]:
            exact_matches += 1
    ok = exact_matches == 100
    _report(4, ok, f"{exact_matches}/100 exact argmin matches on the "
            "101-point grid")
    assert ok


def test_criterion_5_uniformity_improves_with_n():
    """KS statistic decreases across N in {20, 100, 200} within one SE."""
    target = rm.DensityOracle.gaussian(0.0, 1.0, 5.0)
    stats = {}
    for n in (20, 100, 200):
        vals = []
        for seed in range(10):
            rep = rm.quantile_mapped_configuration(
                target, ndtr, ndtri, RP40,
                rm.SamplerConfig(n_points=n, seed=1000 * n + seed))
            vals.append(rm.uniformity_statistic(rep.configuration, ndtr))
        stats[n] = (float(np.mean(vals)),
                    float(np.std(vals, ddof=1) / math.sqrt(len(vals))))
    dec_20_100 = stats[100][0] < stats[20][0] + stats[20][1]
    dec_100_200 = stats[200][0] < stats[100][0] + stats[100][1]
    ok = dec_20_100 and dec_100_200
    _report(5, ok, ", ".join(
        f"N={n}: KS {stats[n][0]:.4f} (SE {stats[n][1]:.4f})"
        for n in (20, 100, 200)))
    assert ok, f"KS statistics not decreasing within one SE: {stats}"


def test_criterion_6_energy_invariant_suite(mp_pair_log_energy,
                                            mp_config_log_energy):
    """Symmetry, strict beta-monotonicity and brute-force agreement."""
    rng = np.random.default_rng(99)
    # symmetry on 1000 randomized pairs
    sym_fail = 0
    for _ in range(1000):
        d = int(rng.integers(1, 3))
        xi, xj = rng.uniform(0, 3, size=(2, d))
        if np.linalg.norm(xi - xj) < 1e-6:
            continue
        ki, kj = rng.uniform(0.05, 3.0, size=2)
        p = rm.RieszParams(s=float(rng.uniform(d + 0.5, 60)), d=d,
                           beta=float(rng.uniform(0, 4)))
        a = rm.log_pair_energy(xi, xj, ki, kj, p)
        b = rm.log_pair_energy(xj, xi, kj, ki, p)
        if not math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12):
            sym_fail += 1
    # strict beta-monotonicity on 1000 randomized configurations, kept in
    # the float64-representable bracket regime (see test_energy)
    mono_fail = 0
    for _ in range(1000):
        n = int(rng.integers(3, 10))
        pts = rng.uniform(0, 1, size=(n, 1))
        while n >= 2 and np.min(np.abs(np.diff(np.sort(pts[:, 0])))) < 5e-3:
            pts = rng.uniform(0, 1, size=(n, 1))
        kap = rng.uniform(0.05, 1.0, size=n)
        c = rm.PointConfiguration(pts, kap, 1)
        lo = float(rng.uniform(0.05, 1.0))
        betas = (lo, lo + float(rng.uniform(0.1, 0.5)), lo + 1.0)
        vals = [rm.config_energy(c, rm.RieszParams(s=40.0, d=1, beta=b))
                for b in betas]
        if not vals[0] > vals[1] > vals[2]:
            mono_fail += 1
    # brute-force agreement to 1e-10 relative on 1000 configurations n <= 20
    brute_fail = 0
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        pts = rng.uniform(0, 3, size=(n, 1))
        while n >= 2 and np.min(np.abs(np.diff(np.sort(pts[:, 0])))) < 1e-2:
            pts = rng.uniform(0, 3, size=(n, 1))
        kap = rng.uniform(0.05, 3.0, size=n)
        beta = float(rng.uniform(0.1, 4.0))
        c = rm.PointConfiguration(pts, kap, 1)
        p = rm.RieszParams(s=40.0, d=1, beta=beta)
        got = rm.config_energy(c, p)
        want = float(mp_config_log_energy(pts, kap, 40.0, 1, 1.0, beta))
        rel = abs(got - want) / max(abs(want), 1e-300)
        worst = max(worst, rel)
        if rel > 1e-10:
            brute_fail += 1
    ok = sym_fail == 0 and mono_fail == 0 and brute_fail == 0
    _report(6, ok, f"symmetry failures {sym_fail}/1000, monotonicity "
            f"failures {mono_fail}/1000, brute-force failures "
            f"{brute_fail}/1000 (worst rel err {worst:.2e})")
    assert ok


def test_criterion_7_sv_end_to_end(tmp_path):
    """pmh-sv on the bundled CSV completes with sane summaries."""
    cfg = load_config("pmh-sv", seed=7, output_dir=tmp_path / "sv")
    cfg.options.update({"iterations": 800, "burn_in": 200})
    status = run_experiment(cfg)
    assert status == 0
    summary = json.loads((tmp_path / "sv" / "summary.json").read_text())
    res = summary["results"]
    finite = all(np.isfinite(list(res["posterior_mean"].values()))) and \
        all(np.isfinite(list(res["posterior_variance"].values())))
    acc = res["acceptance_rate"]
    acc_ok = 0.05 < acc < 0.8
    vol_lines = (tmp_path / "sv" / "plotdata"
                 / "volatility.csv").read_text().splitlines()
    vols = np.array([[float(v) for v in line.split(",")[2:]]
                     for line in vol_lines[1:]])
    intervals_ok = (vols.shape[0] == res["n_observations"]
                    and np.all(np.isfinite(vols))
                    and np.all(vols[:, 1] <= vols[:, 0])
                    and np.all(vols[:, 0] <= vols[:, 2]))
    ok = finite and acc_ok and intervals_ok
    _report(7, ok, f"N'={cfg.options['n_riesz']}, acceptance {acc:.3f}, "
            f"posterior mean {res['posterior_mean']}, "
            f"{vols.shape[0]} interval rows")
    assert finite, "posterior summaries not finite"
    assert acc_ok, f"acceptance rate {acc} outside (0.05, 0.8)"
    assert intervals_ok, "interval plot data invalid"


def test_criterion_8_byte_identical_reruns(tmp_path):
    """Identical config and seed produce byte-identical results.csv."""
    runs = {
        "generate-points": {"n_points": 40},
        "filter-lgss": {"T": 20, "n_values": [10, 20], "n_seeds": 2},
        "pmh-lgss": {"T": 10, "iterations": 50, "burn_in": 10,
                     "n_particles": 20, "n_riesz": 10},
        "pmh-sv": {"iterations": 20, "burn_in": 5, "n_particles": 20,
                   "n_riesz": 10},
        "diagnostics": {"n_values": [10, 20]},
    }
    identical = {}
    for name, tweaks in runs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(tweaks))
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            with pytest.raises(SystemExit) as exc:
                main([name, "--config", str(cfg_path), "--seed", "13",
                      "--output", str(out)])
            assert exc.value.code == 0
            blobs.append((out / "results.csv").read_bytes())
        identical[name] = blobs[0] == blobs[1]
    ok = all(identical.values())
    _report(8, ok, ", ".join(f"{k}: {'identical' if v else 'DIFFERS'}"
                             for k, v in identical.items()))
    assert ok, f"non-deterministic subcommands: {identical}"
