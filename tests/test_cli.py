"""Config handling, CSV ingestion, experiment outputs and exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import rieszmc
from rieszmc import RieszProposalSet
from rieszmc.cli import (
    _RUNNERS,
    bundled_prices_path,
    format_float,
    load_config,
    load_prices_csv,
    main,
    run_experiment,
)
from rieszmc.errors import (
    ConfigError,
    DataError,
    EmptyFile,
    MissingColumn,
    NonPositivePrice,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs"
     / "summary.schema.json").read_text())


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _summary(out_dir: Path) -> dict:
    return json.loads((out_dir / "summary.json").read_text())


class TestLoadPricesCsv:
    def test_flat_price_zero_return(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "date,close\n2020-01-01,100\n2020-01-02,100\n")
        series = load_prices_csv(path)
        assert series.log_returns.tolist() == [0.0]
        assert series.dates == ["2020-01-02"]

    def test_ten_percent_move(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "date,close\n2020-01-01,100\n2020-01-02,110\n")
        series = load_prices_csv(path)
        assert series.log_returns[0] == pytest.approx(math.log(1.1),
                                                      rel=1e-12)

    def test_bundled_file_telescopes(self):
        series = load_prices_csv(bundled_prices_path())
        assert len(series.log_returns) == 251
        closes = []
        for line in bundled_prices_path().read_text().splitlines()[1:]:
            closes.append(float(line.split(",")[1]))
        want = math.log(closes[-1] / closes[0])
        assert series.log_returns.sum() == pytest.approx(want, abs=1e-12)

    def test_crlf_and_case_insensitive_header(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "Date,CLOSE\r\n2020-01-01,100\r\n2020-01-02,105\r\n")
        series = load_prices_csv(path)
        assert len(series.log_returns) == 1

    def test_extra_columns_allowed(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "open,date,close\n99,2020-01-01,100\n"
                      "101,2020-01-02,105\n")
        assert len(load_prices_csv(path).log_returns) == 1

    def test_missing_columns(self, tmp_path):
        with pytest.raises(MissingColumn):
            load_prices_csv(_write(tmp_path, "a.csv",
                                   "date,price\n2020-01-01,1\n"))
        with pytest.raises(MissingColumn):
            load_prices_csv(_write(tmp_path, "b.csv",
                                   "day,close\n2020-01-01,1\n"))

    def test_non_positive_price_reports_row(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "date,close\n2020-01-01,100\n2020-01-02,-3\n")
        with pytest.raises(NonPositivePrice, match="row 3"):
            load_prices_csv(path)

    @pytest.mark.parametrize("close", ["nan", "inf", "1e400"])
    def test_non_finite_close_reports_row(self, tmp_path, capsys, close):
        path = _write(tmp_path, "p.csv", "date,close\n2020-01-01,100\n"
                      f"2020-01-02,{close}\n2020-01-03,101\n")
        with pytest.raises(DataError, match="row 3.*not finite"):
            load_prices_csv(path)
        cfg = _write(tmp_path, "c.json", json.dumps({"input_path": str(path)}))
        with pytest.raises(SystemExit) as exc:
            main(["pmh-sv", "--config", str(cfg),
                  "--output", str(tmp_path / "out")])
        assert exc.value.code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError" and "row 3" in err["message"]

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_prices_csv(_write(tmp_path, "e.csv", ""))
        with pytest.raises(EmptyFile):
            load_prices_csv(_write(tmp_path, "h.csv", "date,close\n"))

    def test_bad_date_rejected(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "date,close\n01/02/2020,100\n01/03/2020,101\n")
        with pytest.raises(DataError):
            load_prices_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_prices_csv(tmp_path / "nope.csv")

    def test_repeated_date_rejected(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "date,close\n2020-01-01,100\n2020-01-02,101\n"
                      "2020-01-02,102\n")
        with pytest.raises(DataError, match="row 4"):
            load_prices_csv(path)

    def test_backwards_date_rejected(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "date,close\n2020-01-02,100\n2020-01-01,101\n")
        with pytest.raises(DataError, match="row 3"):
            load_prices_csv(path)

    def test_returns_roundtrip_17_digits(self):
        series = load_prices_csv(bundled_prices_path())
        rendered = [format_float(v) for v in series.log_returns]
        back = np.array([float(v) for v in rendered])
        assert np.max(np.abs(back - series.log_returns)) <= 1e-15


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config("generate-points")
        assert cfg.experiment == "generate-points"
        assert cfg.seed == 0
        assert cfg.options["n_points"] == 200

    def test_file_merge_and_overrides(self, tmp_path):
        path = _write(tmp_path, "c.json", json.dumps({
            "experiment": "filter-lgss",
            "seed": 12,
            "T": 30,
            "model": {"phi": 0.5},
        }))
        cfg = load_config("filter-lgss", path, seed=99, output_dir="odir")
        assert cfg.seed == 99                      # CLI flag wins
        assert cfg.options["T"] == 30
        assert cfg.options["model"]["phi"] == 0.5
        assert cfg.options["model"]["sigma_v"] == 1.0   # default preserved
        assert cfg.output_dir == Path("odir")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            load_config("nope")

    def test_experiment_mismatch(self, tmp_path):
        path = _write(tmp_path, "c.json",
                      json.dumps({"experiment": "pmh-sv"}))
        with pytest.raises(ConfigError):
            load_config("filter-lgss", path)

    def test_unknown_keys(self, tmp_path):
        path = _write(tmp_path, "c.json", json.dumps({"bogus": 1}))
        with pytest.raises(ConfigError):
            load_config("filter-lgss", path)

    @pytest.mark.parametrize("options, path", [
        ({"proposal": {"jiter": 0.5}}, "proposal.jiter"),
        ({"proposal": {"mode": "frozen"}}, "proposal.mode"),
        ({"model": {"phi": "0.5"}}, "model.phi"),
        ({"riesz": {"s": None}}, "riesz.s"),
        ({"n_values": [10, None]}, "n_values[1]"),
        ({"n_seeds": True}, "n_seeds"),
        ({"proposal": 0.1}, "proposal"),
        ({"model": {"phi": 10 ** 400}}, "model.phi"),
    ])
    def test_nested_keys_and_types_checked(self, tmp_path, options, path):
        cfg = _write(tmp_path, "c.json", json.dumps(options))
        with pytest.raises(ConfigError, match=path.replace("[", r"\[")):
            load_config("filter-lgss", cfg)

    def test_numbers_interchange_and_null_default_takes_number(
            self, tmp_path):
        path = _write(tmp_path, "c.json", json.dumps({
            "T": 30.0, "model": {"phi": 1}, "n_values": [10, 20.0]}))
        assert load_config("filter-lgss", path).options["model"]["phi"] == 1
        for burn_in in (None, 10):
            path = _write(tmp_path, "p.json", json.dumps({"burn_in": burn_in}))
            assert load_config("pmh-lgss", path).options["burn_in"] == burn_in

    def test_invalid_json(self, tmp_path):
        path = _write(tmp_path, "c.json", "{not json")
        with pytest.raises(ConfigError):
            load_config("filter-lgss", path)


class TestRunExperiment:
    def test_generate_points_outputs(self, tmp_path):
        cfg = load_config("generate-points", seed=3,
                          output_dir=tmp_path / "out")
        cfg.options["n_points"] = 40
        assert run_experiment(cfg) == 0
        out = tmp_path / "out"
        assert (out / "results.csv").is_file()
        assert (out / "plotdata" / "qq.csv").is_file()
        summary = _summary(out)
        jsonschema.validate(summary, SCHEMA)
        rows = (out / "plotdata" / "qq.csv").read_text().splitlines()
        assert len(rows) == 41  # header + one pair per point

    def test_all_experiments_validate_against_schema(self, tmp_path):
        small = {
            "generate-points": {"n_points": 25},
            "diagnostics": {"n_values": [10, 20]},
            "filter-lgss": {"T": 15, "n_values": [10, 20], "n_seeds": 2},
            "pmh-lgss": {"T": 10, "iterations": 40, "burn_in": 10,
                         "n_particles": 20, "n_riesz": 10},
            "pmh-sv": {"iterations": 30, "burn_in": 5, "n_particles": 30,
                       "n_riesz": 10},
        }
        for name, tweaks in small.items():
            cfg = load_config(name, seed=1, output_dir=tmp_path / name)
            cfg.options.update(tweaks)
            assert run_experiment(cfg) == 0, name
            summary = _summary(tmp_path / name)
            jsonschema.validate(summary, SCHEMA)
            assert (tmp_path / name / "results.csv").is_file()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = load_config("generate-points", seed=0,
                          output_dir=tmp_path / "out")
        cfg.options["n_points"] = 3
        cfg.options["quantile_mapped"] = False
        cfg.options["target"] = "uniform"
        cfg.options["riesz"]["eps_dist"] = 0.6
        cfg.options["sampler"]["max_retries"] = 2
        assert run_experiment(cfg) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BudgetExhausted"
        assert err["exit_code"] == 4

    def test_missing_input_exit_code(self, tmp_path, capsys):
        cfg = load_config("pmh-sv", seed=0, output_dir=tmp_path / "out")
        cfg.input_path = tmp_path / "missing.csv"
        assert run_experiment(cfg) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 3

    def test_pmh_lgss_step_size_sweep_reports_acf(self, tmp_path):
        cfg = load_config("pmh-lgss", seed=4, output_dir=tmp_path / "out")
        cfg.options.update({"T": 10, "iterations": 60, "burn_in": 20,
                            "step_sizes": [0.05, 0.1, 0.5],
                            "n_particles": 20, "n_riesz": 10})
        assert run_experiment(cfg) == 0
        acf_lines = (tmp_path / "out" / "plotdata"
                     / "acf.csv").read_text().splitlines()
        seen = {line.split(",")[0] for line in acf_lines[1:]}
        assert seen == {"0.050000000000000003", "0.10000000000000001",
                        "0.5"}
        summary = _summary(tmp_path / "out")
        assert len(summary["results"]["chains"]) == 3
        for chain in summary["results"]["chains"]:
            assert 0.0 <= chain["acceptance_rate"] <= 1.0

    @pytest.mark.parametrize("experiment, tweaks", [
        ("pmh-sv", {}),
        ("pmh-lgss", {"T": 10, "step_sizes": [0.1, 0.3]}),
    ])
    def test_one_proposal_set_per_run(self, tmp_path, monkeypatch,
                                      experiment, tweaks):
        # every chain and the volatility filter draw through one set
        built = []
        standard_normal = RieszProposalSet.standard_normal

        def counting(*args, **kwargs):
            built.append(args)
            return standard_normal(*args, **kwargs)

        monkeypatch.setattr(RieszProposalSet, "standard_normal", counting)
        cfg = load_config(experiment, seed=1, output_dir=tmp_path / "out")
        cfg.options.update({"iterations": 10, "burn_in": 2,
                            "n_particles": 20, "n_riesz": 10, **tweaks})
        assert run_experiment(cfg) == 0
        assert len(built) == 1

    def test_pmh_sv_on_custom_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        closes = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(40)))
        lines = ["date,close"]
        from datetime import date, timedelta
        d = date(2021, 1, 4)
        for c in closes:
            lines.append(f"{d.isoformat()},{c:.4f}")
            d += timedelta(days=1)
        path = _write(tmp_path, "prices.csv", "\n".join(lines) + "\n")
        cfg = load_config("pmh-sv", seed=2, output_dir=tmp_path / "out")
        cfg.input_path = path
        cfg.options.update({"iterations": 25, "burn_in": 5,
                            "n_particles": 25, "n_riesz": 10})
        assert run_experiment(cfg) == 0
        vol = (tmp_path / "out" / "plotdata" / "volatility.csv")
        assert len(vol.read_text().splitlines()) == 40  # header + 39 returns


class TestMain:
    def test_bad_config_exit_2(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", "{broken")
        with pytest.raises(SystemExit) as exc:
            main(["generate-points", "--config", str(path)])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 2

    @pytest.mark.parametrize("experiment, options", [
        ("filter-lgss", {"proposal": {"index_mode": "bogus"}}),
        ("filter-lgss", {"proposal": {"jitter": 0.0}}),
        ("filter-lgss", {"proposal": {"jitter": -0.1}}),
        ("filter-lgss", {"n_values": [0]}),
        ("pmh-lgss", {"step_sizes": [-0.1], "iterations": 5, "T": 5}),
        ("pmh-sv", {"step_sizes": [1.0, -0.05, 0.03], "iterations": 5}),
        ("filter-lgss", {"proposal": {"jitter": None}}),
        ("filter-lgss", {"riesz": {"s": None}}),
        ("filter-lgss", {"proposal": {"jiter": 0.5}}),
        ("filter-lgss", {"sampler": {"candidate_cout": 8}}),
        ("filter-lgss", {"proposal": {"mode": "frozen"}}),
        ("filter-lgss", {"proposal": {"index_mode": "modulo",
                                      "resampling": "systematic"}}),
        ("filter-lgss", {"n_values": []}),
        ("pmh-lgss", {"step_sizes": [], "iterations": 5, "T": 5}),
        ("diagnostics", {"n_values": []}),
        ("generate-points", {"seed": True}),
        ("generate-points", {"n_points": 20.7}),
        ("filter-lgss", {"riesz": {"d": 1.5}}),
        ("generate-points", {"output_dir": 5}),
        ("pmh-sv", {"input_path": 7}),
        ("filter-lgss", {"sampler": {"refine_iters": 0}}),
        ("generate-points", {"covering_resolution": 0}),
        ("generate-points", {"covering_resolution": 1}),
        ("diagnostics", {"covering_resolution": 1}),
        ("pmh-lgss", {"max_lag": -1, "iterations": 5, "T": 5}),
        ("pmh-sv", {"max_lag": -1, "iterations": 5}),
        ("pmh-lgss", {"prior": {"std": 0}, "iterations": 5, "T": 5}),
        ("pmh-lgss", {"prior": {"std": -0.5}, "iterations": 5, "T": 5}),
        ("pmh-sv", {"priors": {"mu": [0.0, 0.0]}, "iterations": 5}),
        ("filter-lgss", {"n_seeds": 0}),
    ])
    def test_invalid_option_values_exit_2(self, tmp_path, capsys,
                                          experiment, options):
        small = {"filter-lgss": {"n_values": [10], "n_seeds": 1, "T": 5,
                                 "n_riesz": 10}}.get(experiment, {})
        path = _write(tmp_path, "c.json", json.dumps({**small, **options}))
        with pytest.raises(SystemExit) as exc:
            main([experiment, "--config", str(path),
                  "--output", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["exit_code"] == 2

    @pytest.mark.parametrize("experiment, options", [
        ("generate-points", {"n_points": 20}),
        ("generate-points", {"n_points": 20, "quantile_mapped": False}),
        ("diagnostics", {"n_values": [20]}),
        ("filter-lgss", {"n_values": [10], "n_seeds": 1, "T": 5,
                         "n_riesz": 10}),
        ("pmh-lgss", {"iterations": 5, "T": 5, "n_riesz": 10}),
        ("pmh-sv", {"iterations": 5, "n_riesz": 10}),
    ])
    def test_two_dimensional_riesz_params_exit_2(self, tmp_path, capsys,
                                                 experiment, options):
        # every configuration a subcommand builds is one-dimensional, so
        # riesz.d = 2 used to be replaced by 1 or to fail as a numerical
        # error
        path = _write(tmp_path, "c.json",
                      json.dumps({**options, "riesz": {"d": 2}}))
        with pytest.raises(SystemExit) as exc:
            main([experiment, "--config", str(path),
                  "--output", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "riesz.d" in err["message"]
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("experiment, options, key", [
        ("pmh-lgss", {"prior": {"std": 0}}, "prior.std"),
        ("pmh-lgss", {"prior": {"std": -0.5}}, "prior.std"),
        ("pmh-sv", {"priors": {"mu": [0.0, 0.0]}}, "priors.mu"),
        ("pmh-sv", {"priors": {"sigma_v": [0.2, -1.0]}}, "priors.sigma_v"),
        ("filter-lgss", {"n_seeds": 0}, "n_seeds"),
    ])
    def test_rejected_value_names_its_key(self, tmp_path, experiment,
                                          options, key):
        cfg = load_config(experiment, _write(tmp_path, "c.json",
                                             json.dumps(options)),
                          output_dir=tmp_path / "out")
        with pytest.raises(ConfigError, match=key):
            _RUNNERS[experiment](cfg)

    def test_success_run(self, tmp_path):
        cfg_path = _write(tmp_path, "c.json",
                          json.dumps({"n_points": 20}))
        with pytest.raises(SystemExit) as exc:
            main(["generate-points", "--config", str(cfg_path),
                  "--seed", "5", "--output", str(tmp_path / "out")])
        assert exc.value.code == 0
        assert (tmp_path / "out" / "summary.json").is_file()
        assert _summary(tmp_path / "out")["seed"] == 5

    def test_repeated_runs_byte_identical(self, tmp_path):
        cfg_path = _write(tmp_path, "c.json", json.dumps({"n_points": 30}))
        outs = []
        for name in ("a", "b"):
            with pytest.raises(SystemExit) as exc:
                main(["generate-points", "--config", str(cfg_path),
                      "--seed", "7", "--output", str(tmp_path / name)])
            assert exc.value.code == 0
            outs.append((tmp_path / name / "results.csv").read_bytes())
        assert outs[0] == outs[1]


# SHA-256 of results.csv and every plotdata/*.csv for tiny seeded runs of
# each subcommand (summary.json holds a runtime and is left out).  They are
# float results of one platform, x86-64 with numpy 2.4 and scipy 1.17, and
# may need re-recording elsewhere.
_PINNED = {
    "generate-points": ({"n_points": 20}, {
        "results.csv": "b65ddd6e8974b38e7d77ce3f0f253215f1803fca042f322acb8ae95eee37e2d7",
        "plotdata/energy_trace.csv": "d944d5bdc959f91b4f2e02bacd491583423823374d76dfe4f0438b9b13a3b1d3",
        "plotdata/qq.csv": "ff8e4a87ef05619ab78ab74ec1638dcafd4f309bca364ed82986ae34b66d3293",
    }),
    "diagnostics": ({"n_values": [10, 20]}, {
        "results.csv": "9ca6f91ae80993b299f16c8306d2178363b6895bb0c692181315d0df688be154",
        "plotdata/qq.csv": "6bb3d32975513fc350443217b48c356290aeb28e6f737f28f9b0a398e69756a8",
    }),
    "filter-lgss": ({"T": 15, "n_values": [10, 20], "n_seeds": 2,
                     "n_riesz": 10}, {
        "results.csv": "e1c653abe5aaa569d777966466025b424a351a7458a160e3b7f653e3c50eb142",
        "plotdata/ess.csv": "f8cf3f4ae1604a3e0779f96314b303dc6c0a4f883c0fd2aacbec6ff720c6ec87",
        "plotdata/filtered.csv": "91d2e1433bf3177ddf0ee348cdc7ec0980398c5bf521abfa6d2ccbd8127276de",
    }),
    "pmh-lgss": ({"T": 10, "iterations": 20, "burn_in": 5,
                  "n_particles": 20, "n_riesz": 10, "max_lag": 5,
                  "proposal": {"jitter": 0.2, "tail_mix": 0.1,
                               "index_mode": "modulo", "half_width": 4.0}}, {
        "results.csv": "69fbfcfeae186575c12663b569ada3551d712069fd10fc040c35add623f1c01c",
        "plotdata/acf.csv": "f9bbbf7854f57a1bc2b287dafccb3fb611f47453461c27c32394ad2cea13a39e",
        "plotdata/trace.csv": "20c78df4e840a84b972bf724512acc82f285208d12bcc59b451131fc791c5f1e",
    }),
    "pmh-sv": ({"iterations": 10, "burn_in": 2, "n_particles": 20,
                "n_riesz": 10, "max_lag": 5,
                "proposal": {"jitter": 0.2, "tail_mix": 0.1,
                             "half_width": 4.0,
                             "resampling": "systematic"}}, {
        "results.csv": "3d14b26c07e8dae37bd6fee68273b79b5f794acdd882bbf82d6269a692386b11",
        "plotdata/acf.csv": "d3f7b0fd69ca05075a4ba3297f9df5986f0f492d95368e005497cc9e67d7836c",
        "plotdata/trace.csv": "8a110ac2d40ca14244f04920e1c722083ac5abf2616a0f332569a8f94d41a885",
        "plotdata/volatility.csv": "7f7a4ffa780ea5e7d115de5505c9489208a80eb5d533ecab1ff1f4176bcb8e2a",
    }),
}


@pytest.mark.parametrize("experiment", sorted(_PINNED))
def test_seeded_outputs_are_pinned(tmp_path, experiment):
    options, want = _PINNED[experiment]
    cfg_path = _write(tmp_path, "c.json", json.dumps(options))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([experiment, "--config", str(cfg_path), "--seed", "3",
              "--output", str(out)])
    assert exc.value.code == 0
    files = [out / "results.csv", *sorted((out / "plotdata").glob("*.csv"))]
    got = {f.relative_to(out).as_posix():
           hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    assert got == want


def test_import_loads_no_heavy_scipy_subpackage():
    """The package needs only scipy.special; loading scipy.integrate,
    .spatial, .sparse or .linalg would add a third of the start-up time."""
    code = ("import sys, rieszmc.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'integrate'], "
            "['scipy', 'spatial'], ['scipy', 'sparse'], ['scipy', 'linalg'])))")
    src = str(Path(rieszmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
