"""End-to-end checks of the ``chanrate`` command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chanrate
from chanrate import harness
from chanrate.cli import main

from _oracles import write_theta_csv


@pytest.fixture
def model_files(tmp_path):
    write_theta_csv(tmp_path / "theta.csv", np.array([[0.9, 0.6], [0.5, 0.3]]))
    (tmp_path / "rates.json").write_text(json.dumps([1.0, 2.0]))
    return tmp_path


@pytest.fixture
def config_file(model_files):
    cfg = {
        "rates": [1.0, 2.0],
        "theta_csv": "theta.csv",
        "policies": [{"kind": "kl-ucb"}, {"kind": "static"}],
        "horizon": 128,
        "seeds": 4,
        "out_dir": str(model_files / "results"),
    }
    path = model_files / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_bad_theta_value(self, tmp_path, capsys):
        (tmp_path / "theta.csv").write_text("channel,rate_1\n1,1.5\n")
        (tmp_path / "rates.json").write_text("[1.0]")
        code = main(
            ["check", "--theta", str(tmp_path / "theta.csv"), "--rates", str(tmp_path / "rates.json")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, got", [pytest.param("0,1,2", 3, id="short"), pytest.param("0,1,2,0.5,9", 5, id="long")]
    )
    def test_trace_row_of_the_wrong_width(self, tmp_path, capsys, row, got):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"start_step,channel,rate_index,theta\n0,1,1,0.9\n{row}\n")
        cfg = {"rates": [1.0, 2.0], "trace_csv": str(trace), "policies": [{"kind": "static"}],
               "horizon": 16, "seeds": 1, "out_dir": str(tmp_path / "results")}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(tmp_path / "config.json")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {trace}:3: expected 4 fields, got {got}\n"

    @pytest.mark.parametrize(
        "patch",
        [
            pytest.param({"horizon": json.loads("[" * 300 + "]" * 300)}, id="deep-horizon"),
            pytest.param(
                {"theta": None, "synth": {"channels": 2, "step_std": 0.01, "latent_hi": "x" * 5000}},
                id="long-latent-hi",
            ),
            pytest.param({"policies": [{"kind": "k" * 3000}]}, id="long-kind"),
            pytest.param({"seeds": ["9" * 4000]}, id="long-seed"),
            pytest.param({"seeds": int("9" * 4000)}, id="long-seed-count"),
            pytest.param({"horizon": -int("9" * 4000)}, id="long-horizon"),
            pytest.param({"policies": [{"kind": "kl-ucb", "window": -int("9" * 4000)}]}, id="long-window"),
            pytest.param({"policies": [{"kind": "kl-ucb", "window": int("9" * 4000)}] * 2}, id="long-labels"),
            pytest.param({"policies": [{"kind": "static", "k" * 3000: 1}]}, id="long-policy-key"),
            pytest.param({"k" * 3000: 1}, id="long-config-key"),
        ],
    )
    def test_a_long_value_is_echoed_short(self, tmp_path, capsys, patch):
        cfg = {"rates": [1.0, 2.0], "theta": [[0.9, 0.6], [0.5, 0.3]], "policies": [{"kind": "static"}],
               "horizon": 16, "seeds": 2, "out_dir": str(tmp_path / "results")}
        cfg = {k: v for k, v in {**cfg, **patch}.items() if v is not None}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(tmp_path / "config.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err[:300]

    def test_a_long_csv_cell_is_echoed_short(self, tmp_path, capsys):
        (tmp_path / "theta.csv").write_text(f"channel,rate_1\n1,{'x' * 5000}\n")
        (tmp_path / "rates.json").write_text("[1.0]")
        argv = ["check", "--theta", str(tmp_path / "theta.csv"), "--rates", str(tmp_path / "rates.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'theta.csv'}:2: theta must be a number, got 'xxx")
        assert err.count("\n") == 1 and len(err) < 200 + len(str(tmp_path))

    @pytest.mark.parametrize("start", [2**63, 10**30])
    def test_trace_start_beyond_int64(self, tmp_path, capsys, start):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"start_step,channel,rate_index,theta\n0,1,1,0.9\n{start},1,1,0.5\n")
        cfg = {"rates": [1.0], "trace_csv": str(trace), "policies": [{"kind": "static"}],
               "horizon": 16, "seeds": 1, "out_dir": str(tmp_path / "results")}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(tmp_path / "config.json")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: segment 2 starts at step {start}, beyond int64\n"

    @pytest.mark.parametrize(
        "patch, message",
        [
            pytest.param({"step_std": math.inf}, "step_std must be finite, got inf", id="step-inf"),
            pytest.param({"step_std": math.nan}, "step_std must be finite, got nan", id="step-nan"),
            pytest.param({"softness": math.inf}, "softness must be finite, got inf", id="softness-inf"),
            pytest.param({"latent_lo": -math.inf}, "latent_lo must be finite, got -inf", id="lo-inf"),
            pytest.param({"latent_hi": math.inf}, "latent_hi must be finite, got inf", id="hi-inf"),
            pytest.param({"latent_hi": math.nan}, "latent_hi must be finite, got nan", id="hi-nan"),
            pytest.param(
                {"thresholds": [math.nan, 0.5]}, "each threshold must be finite, got nan", id="threshold-nan"
            ),
            pytest.param(
                {"thresholds": [0.2, math.inf]}, "each threshold must be finite, got inf", id="threshold-inf"
            ),
            pytest.param({"step_std": 10**400}, "step_std is beyond float range", id="step-huge-int"),
            pytest.param({"step_std": 1e308}, "the drift's latent path leaves float range", id="walk"),
            pytest.param(
                {"latent_lo": -1e308, "latent_hi": 1e308},
                "the drift's latent path leaves float range",
                id="span",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "gen-env"])
    def test_drift_spec_past_float_range(self, tmp_path, capsys, command, patch, message):
        spec = {"channels": 2, "step_std": 0.01, **patch}
        path = tmp_path / "input.json"
        if command == "simulate":
            out = tmp_path / "results"
            data = {"rates": [1.0, 2.0], "synth": spec, "policies": [{"kind": "kl-ucb"}],
                    "horizon": 50, "seeds": 2, "out_dir": str(out)}
            argv = ["simulate", "--config", str(path)]
        else:
            out = tmp_path / "trace.csv"
            data = {"rates": [1.0, 2.0], "horizon": 50, **spec}
            argv = ["gen-env", "--spec", str(path), "--out", str(out)]
        path.write_text(json.dumps(data))  # NaN and Infinity literals, as Python's json reads them
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @staticmethod
    def _simulate_table(tmp_path, capsys, source, text, rates=(1.0, 2.0)) -> str:
        """The stderr of ``simulate`` on a config naming ``table.csv``, with
        ``text`` in it, as its ``source``; the run must exit 2."""
        (tmp_path / "table.csv").write_text(text)
        cfg = {"rates": list(rates), source: str(tmp_path / "table.csv"),
               "policies": [{"kind": "static"}], "horizon": 16, "seeds": 1,
               "out_dir": str(tmp_path / "results")}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(tmp_path / "config.json")]) == 2
        return capsys.readouterr().err

    @staticmethod
    def _check_theta(tmp_path, capsys, text) -> str:
        """The stderr of ``check`` on ``text`` as its theta CSV; exit 2."""
        (tmp_path / "theta.csv").write_text(text)
        (tmp_path / "rates.json").write_text("[1.0, 2.0]")
        argv = ["check", "--theta", str(tmp_path / "theta.csv"), "--rates", str(tmp_path / "rates.json")]
        assert main(argv) == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            pytest.param("1,0.9,0.5\nx,0.4,0.2\n", ":3: channel must be an integer, got 'x'", id="channel"),
            pytest.param("1,0.9,0.5\n2,0.4,0..2\n", ":3: theta must be a number, got '0..2'", id="theta"),
            pytest.param("1,0.9,\n", ":2: theta must be a number, got ''", id="empty-cell"),
            pytest.param("1,0.9,nan\n2,0.4,0.2\n", ": values must lie in [0, 1]", id="nan"),
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "check"])
    def test_theta_csv_error_names_the_file(self, tmp_path, capsys, command, rows, message):
        text = "channel,r1,r2\n" + rows
        if command == "simulate":
            err = self._simulate_table(tmp_path, capsys, "theta_csv", text)
            path = tmp_path / "table.csv"
        else:
            err = self._check_theta(tmp_path, capsys, text)
            path = tmp_path / "theta.csv"
        assert err == f"error: {path}{message}\n"

    @pytest.mark.parametrize(
        "body, message",
        [
            pytest.param("0,1,1,0.9\n1.5,1,2,0.4\n", ":3: start_step must be an integer, got '1.5'", id="start"),
            pytest.param("0,one,1,0.9\n", ":2: channel must be an integer, got 'one'", id="channel"),
            pytest.param("0,1,,0.9\n", ":2: rate_index must be an integer, got ''", id="rate"),
            pytest.param("0,1,1,high\n", ":2: theta must be a number, got 'high'", id="theta"),
            pytest.param("", ": trace CSV has no data rows", id="no-rows"),
            pytest.param("0,0,1,0.9\n", ": channel and rate_index are 1-based", id="zero-based"),
        ],
    )
    def test_trace_csv_error_names_the_file(self, tmp_path, capsys, body, message):
        text = "start_step,channel,rate_index,theta\n" + body
        err = self._simulate_table(tmp_path, capsys, "trace_csv", text, rates=(1.0,))
        assert err == f"error: {tmp_path / 'table.csv'}{message}\n"

    def test_trace_csv_without_its_columns_names_the_file(self, tmp_path, capsys):
        err = self._simulate_table(tmp_path, capsys, "trace_csv", "step,channel,rate,theta\n0,1,1,0.9\n")
        want = "trace CSV must have columns ['channel', 'rate_index', 'start_step', 'theta']"
        assert err == f"error: {tmp_path / 'table.csv'}: {want}\n"

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "patch, message",
        [
            pytest.param({"seeds": True}, "seeds must be an integer", id="seeds-true"),
            pytest.param({"seeds": [1, 2.5]}, "each of seeds must be an integer", id="seed-fraction"),
            pytest.param({"horizon": True}, "horizon must be an integer", id="horizon-true"),
            pytest.param({"horizon": 10.7}, "horizon must be an integer", id="horizon-fraction"),
            pytest.param(
                {"policies": [{"kind": "kl-ucb-u", "window": 2.5}]},
                "window must be an integer",
                id="window-fraction",
            ),
            pytest.param(
                {"policies": [{"kind": "kl-ucb-u", "strict": "no"}]},
                "strict must be true or false",
                id="strict-string",
            ),
            pytest.param({"policies": [1]}, "policy entry must be an object", id="policy-number"),
            pytest.param(
                {"policies": [{"kind": 1}]}, "policy kind must be a string", id="kind-number"
            ),
            pytest.param(
                {"checkpoints": [10.5]}, "each of checkpoints must be an integer", id="checkpoint-fraction"
            ),
            pytest.param({"checkpoints": 7}, "checkpoints must be a list", id="checkpoints-number"),
            pytest.param(
                {"rates": [1.0, 10**400]}, "rates must be positive and finite", id="rate-past-float-range"
            ),
            pytest.param(
                {"occupancy": [0.5, 10**400]},
                "occupancy holds a number beyond float range",
                id="occupancy-past-float-range",
            ),
            pytest.param(
                {"theta": [[0.9, 10**400], [0.5, 0.3]]},
                "theta holds a number beyond float range",
                id="theta-past-float-range",
            ),
        ],
    )
    def test_malformed_config_values(self, tmp_path, capsys, patch, message):
        cfg = {
            "rates": [1.0, 2.0],
            "theta": [[0.9, 0.6], [0.5, 0.3]],
            "policies": [{"kind": "static"}],
            "horizon": 16,
            "seeds": 2,
            "out_dir": str(tmp_path / "results"),
        }
        cfg.update(patch)
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(tmp_path / "config.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "results").exists()

    def test_config_must_be_an_object(self, tmp_path, capsys):
        (tmp_path / "config.json").write_text("[1, 2]")
        assert main(["simulate", "--config", str(tmp_path / "config.json")]) == 2
        assert "error: config must be a JSON object" in capsys.readouterr().err

    def test_horizon_beyond_memory_is_rejected_up_front(self, tmp_path, capsys):
        cfg = {
            "rates": [1.0, 2.0],
            "theta": [[0.9, 0.6], [0.5, 0.3]],
            "policies": [{"kind": "kl-ucb"}, {"kind": "oracle"}],
            "horizon": 1e12,
            "seeds": 2,
            "out_dir": str(tmp_path / "results"),
        }
        # A short run whose window rings alone exceed physical memory.
        short = dict(cfg, horizon=16, policies=[{"kind": "kl-ucb", "window": 100000000000000}])
        for config in (cfg, short):
            (tmp_path / "config.json").write_text(json.dumps(config))
            assert main(["simulate", "--config", str(tmp_path / "config.json")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "physical memory" in err
            assert not (tmp_path / "results").exists()

    def test_seed_count_beyond_memory_is_rejected_up_front(self, config_file, monkeypatch, capsys):
        """10^5 seeds on a host of 4 MiB, from the config and from --seeds."""
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1024}
        monkeypatch.setattr(harness.os, "sysconf", pages.__getitem__)
        big = config_file.with_name("big.json")
        big.write_text(json.dumps(dict(json.loads(config_file.read_text()), seeds=10**5)))
        for argv in (["--config", str(big)], ["--config", str(config_file), "--seeds", "100000"]):
            assert main(["simulate", *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: 100000 seeds need about") and "physical memory" in err
            assert err.count("\n") == 1
            assert not (config_file.parent / "results").exists()

    @pytest.mark.parametrize(
        "patch",
        [
            pytest.param({"horizon": 10**400}, id="horizon"),
            pytest.param({"seeds": 10**400}, id="seed-count"),
            pytest.param({"policies": [{"kind": "kl-ucb", "window": 10**400}]}, id="window"),
        ],
    )
    def test_integer_past_float_range_meets_the_memory_check(self, tmp_path, capsys, patch):
        cfg = {"rates": [1.0, 2.0], "theta": [[0.9, 0.6], [0.5, 0.3]], "policies": [{"kind": "static"}],
               "horizon": 16, "seeds": 2, "out_dir": str(tmp_path / "results")}
        (tmp_path / "config.json").write_text(json.dumps({**cfg, **patch}))
        assert main(["simulate", "--config", str(tmp_path / "config.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "physical memory" in err and err.count("\n") == 1
        assert not (tmp_path / "results").exists()

    def test_seed_past_float_range_is_read_exactly(self, tmp_path, capsys):
        seeds = [2.0, 10**400]  # a float sends the list down the per-entry check
        cfg = {"rates": [1.0, 2.0], "theta": [[0.9, 0.6], [0.5, 0.3]], "policies": [{"kind": "static"}],
               "horizon": 16, "seeds": seeds, "out_dir": str(tmp_path / "results")}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(tmp_path / "config.json")]) == 0
        summary = json.loads((tmp_path / "results" / "summary.json").read_text())
        assert summary["config"]["seeds"] == [2, 10**400]

    @pytest.mark.parametrize("source", ["theta_csv", "trace_csv"])
    def test_csv_field_over_the_size_limit(self, tmp_path, capsys, source):
        theta = "0." + "1" * 200_000  # the csv module's field limit is 131,072
        path = tmp_path / "input.csv"
        path.write_text(
            f"channel,rate_1\n1,{theta}\n"
            if source == "theta_csv"
            else f"start_step,channel,rate_index,theta\n0,1,1,{theta}\n"
        )
        cfg = {"rates": [1.0], source: str(path), "policies": [{"kind": "static"}], "horizon": 16,
               "seeds": 1, "out_dir": str(tmp_path / "results")}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(tmp_path / "config.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: field larger than field limit")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "bounds", "check", "gen-env"])
    def test_json_nested_too_deeply(self, model_files, capsys, command):
        path = model_files / "input.json"
        path.write_text("[" * 3000 + "]" * 3000)
        argv = {
            "simulate": ["--config", str(path), "--out", str(model_files / "results")],
            "bounds": ["--theta", str(model_files / "theta.csv"), "--rates", str(path)],
            "check": ["--theta", str(model_files / "theta.csv"), "--rates", str(path)],
            "gen-env": ["--spec", str(path), "--out", str(model_files / "trace.csv")],
        }[command]
        assert main([command, *argv]) == 2
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"

    @pytest.mark.parametrize(
        "command, patch",
        [
            pytest.param("simulate", {"rates": 5}, id="simulate-rates-number"),
            pytest.param("simulate", {"rates": None}, id="simulate-rates-null"),
            pytest.param("simulate", {"synth": 5}, id="simulate-synth-number"),
            pytest.param("simulate", {"synth": {}}, id="simulate-synth-empty"),
            pytest.param("simulate", {"synth": {"channels": "a"}}, id="simulate-synth-channels"),
            pytest.param("simulate", {"theta_csv": 5}, id="simulate-theta-csv-number"),
            pytest.param("bounds", {"rates": 5}, id="bounds-rates-number"),
            pytest.param("check", {"rates": 5}, id="check-rates-number"),
            pytest.param("gen-env", {"step_std": "a"}, id="gen-env-step-std-string"),
            pytest.param("gen-env", {"channels": 2.5}, id="gen-env-channels-fraction"),
            pytest.param("gen-env", {"step_std": ...}, id="gen-env-step-std-missing"),
        ],
    )
    def test_malformed_input_exits_2_without_traceback(self, model_files, capsys, command, patch):
        # ``...`` drops a key; a simulate patch without a source gets a theta table.
        doc = {
            "simulate": {"rates": [1.0, 2.0], "policies": [{"kind": "static"}], "horizon": 16, "seeds": 2},
            "bounds": {},
            "check": {},
            "gen-env": {"rates": [1.0, 2.0], "channels": 2, "horizon": 10, "step_std": 0.1},
        }[command]
        if command == "simulate" and not {"synth", "theta_csv"} & set(patch):
            doc["theta"] = [[0.9, 0.6], [0.5, 0.3]]
        doc = {k: v for k, v in {**doc, **patch}.items() if v is not ...}
        path = model_files / "input.json"
        path.write_text(json.dumps(doc))
        argv = {
            "simulate": ["--config", str(path), "--out", str(model_files / "results")],
            "bounds": ["--theta", str(model_files / "theta.csv"), "--rates", str(path)],
            "gen-env": ["--spec", str(path), "--out", str(model_files / "trace.csv")],
        }
        argv["check"] = argv["bounds"]
        assert main([command, *argv[command]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestCheck:
    def test_structural_report(self, model_files, capsys):
        code = main(
            [
                "check",
                "--theta",
                str(model_files / "theta.csv"),
                "--rates",
                str(model_files / "rates.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "channels: 2  rates: 2" in out
        assert "best pair: channel 1, rate index 2 (2 per packet), throughput 1.2" in out
        assert "monotone rows: yes" in out
        assert "graphically unimodal: yes" in out


class TestBounds:
    def test_json_report(self, model_files, capsys):
        code = main(
            [
                "bounds",
                "--theta",
                str(model_files / "theta.csv"),
                "--rates",
                str(model_files / "rates.json"),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["c_I"]["defined"]
        assert report["c_GU"]["value"] <= report["c_I"]["value"]
        assert report["c_U"]["computed"] is False
        assert report["c_U"]["upper_bound"] == report["c_U_prime"]["value"]


class TestSimulate:
    def test_end_to_end(self, model_files, config_file, capsys):
        assert main(["simulate", "--config", str(config_file)]) == 0
        out = capsys.readouterr().out
        assert "slots: 128  seeds: 4" in out
        results = model_files / "results"
        for name in ("regret.csv", "decisions.csv", "summary.json", "bounds.json"):
            assert (results / name).exists()
        summary = json.loads((results / "summary.json").read_text())
        assert summary["slots"] == 128

    def test_seed_and_out_overrides(self, model_files, config_file, capsys):
        out_dir = model_files / "elsewhere"
        code = main(
            ["simulate", "--config", str(config_file), "--seeds", "2", "--out", str(out_dir)]
        )
        assert code == 0
        assert "seeds: 2" in capsys.readouterr().out
        header = (out_dir / "regret.csv").read_text().splitlines()[0]
        assert header == "checkpoint,policy,mean,stddev,seed_1,seed_2"

    def test_repeat_runs_are_byte_identical(self, model_files, config_file, capsys):
        main(["simulate", "--config", str(config_file), "--out", str(model_files / "r1")])
        main(["simulate", "--config", str(config_file), "--out", str(model_files / "r2")])
        capsys.readouterr()
        for name in ("regret.csv", "decisions.csv", "bounds.json"):
            a = (model_files / "r1" / name).read_bytes()
            b = (model_files / "r2" / name).read_bytes()
            assert a == b, name
        # summary.json echoes the config, whose out_dir we deliberately vary.
        summaries = []
        for run in ("r1", "r2"):
            data = json.loads((model_files / run / "summary.json").read_text())
            assert data["config"].pop("out_dir") == str(model_files / run)
            summaries.append(data)
        assert summaries[0] == summaries[1]

    def test_baselines_byte_identical_under_time_accounting(self, tmp_path, capsys):
        # Same contract as acceptance criterion 11, on the baseline path:
        # oracle and static beside a learner, both ledgers, non-dyadic rates.
        out = tmp_path / "results"
        cfg = {
            "rates": [1.1, 2.3],
            "theta": [[0.9, 0.3], [0.5, 0.2]],
            "policies": [{"kind": "oracle"}, {"kind": "static"}, {"kind": "kl-ucb"}],
            "horizon": 300,
            "seeds": 4,
            "accounting": "both",
            "out_dir": str(out),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        names = ("regret.csv", "decisions.csv", "summary.json", "bounds.json")
        runs = []
        for _ in range(2):
            shutil.rmtree(out, ignore_errors=True)
            assert main(["simulate", "--config", str(path)]) == 0
            runs.append({name: (out / name).read_bytes() for name in names})
        capsys.readouterr()
        for name in names:
            assert runs[0][name] == runs[1][name], name

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_throughput_efficiency_is_null(self, tmp_path, capsys):
        out = tmp_path / "results"
        cfg = {
            "rates": [1.0, 2.0],
            "theta": [[0.0, 0.0]],
            "policies": [{"kind": "kl-ucb"}, {"kind": "oracle"}, {"kind": "static"}],
            "horizon": 16,
            "seeds": 2,
            "accounting": "both",
            "out_dir": str(out),
        }
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(tmp_path / "config.json")]) == 0
        assert capsys.readouterr().out.count("efficiency n/a") == 3

        def strict(constant):
            raise AssertionError(f"summary.json holds {constant}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=strict)
        assert summary["oracle"]["efficiency"] is None
        assert summary["static"]["efficiency"] is None
        for entry in summary["policies"].values():
            assert entry["efficiency_mean"] is None


class TestGenEnv:
    @pytest.mark.parametrize("step_std", [0.1, 0.0])
    def test_horizon_beyond_memory_is_rejected_up_front(self, tmp_path, capsys, step_std):
        # A moving walk holds a horizon-long latent path; a frozen one does
        # not, but its trace still needs one table per step.
        spec = {"rates": [1.0, 2.0], "channels": 2, "horizon": 1e15, "step_std": step_std}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "trace.csv"
        assert main(["gen-env", "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "physical memory" in err
        assert not out.exists()

    def test_spec_to_trace_round_trip(self, tmp_path, capsys):
        spec = {
            "rates": [1.0, 2.0],
            "channels": 2,
            "horizon": 50,
            "step_std": 0.05,
            "seed": 7,
        }
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "trace.csv"
        code = main(
            [
                "gen-env",
                "--spec",
                str(tmp_path / "spec.json"),
                "--out",
                str(out),
                "--sample-every",
                "10",
            ]
        )
        assert code == 0
        assert "horizon 50" in capsys.readouterr().out
        from chanrate.environments import TraceTable

        # The CSV stores segments only; the horizon rides in the config.
        trace = TraceTable.from_csv(out, horizon=50)
        assert trace.starts.tolist() == [0, 10, 20, 30, 40]
        assert trace.channels == 2 and trace.n_rates == 2
        assert np.all((trace.tables[0] > 0) & (trace.tables[0] < 1))


def _python(cwd, code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this chanrate; return its stdout."""
    src = Path(chanrate.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestWithoutScipy:
    """scipy is a test-only oracle: the package neither imports nor needs it."""

    def test_import_loads_no_scipy(self, tmp_path):
        code = "import sys, chanrate; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        assert _python(tmp_path, code).strip() == "[]"

    def test_cli_runs_with_scipy_blocked(self, model_files, config_file):
        synth = {
            "rates": [1.0, 2.0],
            "synth": {"channels": 2, "step_std": 0.05, "softness": 1e-4},
            "policies": [{"kind": "kl-ucb-u", "window": 20}, {"kind": "crs-t"}],
            "horizon": 64,
            "seeds": 2,
        }
        (model_files / "synth.json").write_text(json.dumps(synth))
        spec = {"rates": [1.0, 2.0], "channels": 2, "horizon": 50, "step_std": 0.05}
        (model_files / "spec.json").write_text(json.dumps(spec))
        model = ["--theta", "theta.csv", "--rates", "rates.json"]
        commands = [
            ["simulate", "--config", str(config_file)],
            ["simulate", "--config", "synth.json", "--out", "synth"],
            ["bounds", *model],
            ["gen-env", "--spec", "spec.json", "--out", "trace.csv"],
        ]
        # A None entry in sys.modules makes every import of scipy fail.
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from chanrate.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(codes))\n"
        )
        out = _python(model_files, code, json.dumps(commands))
        assert json.loads(out.splitlines()[-1]) == [0, 0, 0, 0]
        assert (model_files / "synth" / "summary.json").exists()
        assert (model_files / "trace.csv").exists()


# Values of a type no config key takes: null, booleans, strings, fractional
# or non-finite numbers, and lists and objects of these.  Integral numbers
# are left out so that no count (horizon, seeds, window) can grow large.
_WRONG = st.recursive(
    st.none()
    | st.booleans()
    | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True).filter(lambda x: not x.is_integer()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _object(draw, required: dict, optional: dict, wrong=_WRONG) -> dict:
    """An object drawn key by key, with some optional keys left out; in
    half of the draws one key is then removed or given a value from
    ``wrong``."""
    keys = [*required, *(k for k in optional if draw(st.booleans()))]
    out = {k: draw({**required, **optional}[k]) for k in keys}
    key = draw(st.sampled_from([None] * len(keys) + keys))
    if key is not None:
        if draw(st.booleans()):
            del out[key]
        else:
            out[key] = draw(wrong)
    return out


@st.composite
def _configs(draw, out_dir: str) -> dict:
    """A simulate config, well formed (horizon up to 64, up to 3 seeds)
    but for at most one removed or wrong-typed key at each level."""
    rates = sorted(draw(st.sets(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=1, max_size=3)))
    channels = draw(st.integers(1, 2))
    prob = st.floats(0.0, 1.0)
    row = st.lists(prob, min_size=len(rates), max_size=len(rates))
    policy = _object(
        {"kind": st.sampled_from(["kl-ucb", "crs-t", "kl-ucb-u", "oracle", "static"])},
        {"window": st.integers(1, 70), "strict": st.booleans()},
    )
    synth = _object(
        {"channels": st.integers(1, 2), "step_std": st.floats(0.0, 0.2)},
        {
            "seed": st.integers(0, 9),
            "softness": st.floats(0.01, 1.0),
            "latent_lo": st.floats(-1.0, 0.0),
            "thresholds": st.lists(
                st.floats(-1.0, 1.0), min_size=len(rates), max_size=len(rates), unique=True
            ).map(sorted),
        },
    )
    source = draw(st.sampled_from(["theta", "synth", "theta", "synth", "theta_csv", "trace_csv"]))
    required = {
        "rates": st.just(rates),
        "horizon": st.integers(6, 64),
        "seeds": st.integers(1, 3) | st.lists(st.integers(0, 2**64), min_size=1, max_size=3, unique=True),
        "policies": st.lists(policy, min_size=1, max_size=3, unique_by=str),
        source: {
            "theta": st.lists(row, min_size=channels, max_size=channels),
            "theta_csv": st.just("missing.csv"),
            "trace_csv": st.just("missing.csv"),
            "synth": synth,
        }[source],
    }
    optional = {
        "occupancy": st.lists(prob, min_size=channels, max_size=channels),
        "accounting": st.sampled_from(["alternative", "original", "both"]),
        "checkpoints": st.lists(st.integers(1, 64), max_size=3),
    }
    config = draw(_object(required, optional))
    # out_dir is never a wrong-typed string, which would name a directory
    # outside the test's own.
    if draw(st.booleans()):
        config["out_dir"] = draw(st.just(out_dir) | _WRONG.filter(lambda v: not isinstance(v, str)))
    return config


class TestArbitraryConfigs:
    @settings(
        derandomize=True,
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_simulate_exits_0_or_2_without_traceback(self, tmp_path, monkeypatch, data):
        monkeypatch.chdir(tmp_path)  # the default out_dir is relative
        config = data.draw(_configs(str(tmp_path / "results")))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(path)])
        assert code in (0, 2)
        assert (code == 2) == err.getvalue().startswith("error:")


# CSV cell texts: numbers in and out of [0, 1], non-finite ones, small
# integers and stray separators or quotes.
_CSV_CELL = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-1, 4).map(str),
    st.text(alphabet=',"\n x1.-e', max_size=4),
)


_RATES = st.lists(st.floats(0.5, 70.0), min_size=1, max_size=3, unique=True).map(sorted)


@st.composite
def _model_csv(draw, n_rates: int) -> bytes:
    """A theta CSV of ``n_rates`` rate columns, a trace CSV or stray bytes;
    a table is well formed in half of the draws, and otherwise has one
    cell, row or header changed."""
    kind = draw(st.sampled_from(["theta", "theta", "trace", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    n_rows = draw(st.integers(1, 3))
    if kind == "theta":
        header = ["channel", *(f"rate{k}" for k in range(1, n_rates + 1))]
        prob = st.floats(0.0, 1.0).map(repr)
        rows = [[str(c), *(draw(prob) for _ in range(n_rates))] for c in range(1, n_rows + 1)]
    else:
        header = ["start_step", "channel", "rate_index", "theta"]
        rows = [[draw(_CSV_CELL) for _ in header] for _ in range(n_rows)]
    table = [header, *rows]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(table) - 1))
        change = draw(st.sampled_from(["cell", "drop", "short"]))
        if change == "cell":
            table[i][draw(st.integers(0, len(table[i]) - 1))] = draw(_CSV_CELL)
        elif change == "drop":
            del table[i]
        else:
            table[i] = table[i][:-1]
    return "".join(",".join(row) + "\n" for row in table).encode()


def _rates_json(rates: list[float]):
    """A rates JSON document for ``rates``: a list or an object, with one
    key removed or wrong-typed in some draws, or a value of a wrong type."""
    return st.one_of(
        st.just(rates),
        _object({"rates": st.just(rates)}, {"occupancy": st.lists(st.floats(0.0, 1.0), max_size=3)}),
        _WRONG,
    )


def _drift_spec(rates: list[float]):
    """A drift spec document over ``rates`` (a horizon up to 60), with at
    most one key removed or wrong-typed."""
    return _object(
        {
            "rates": st.just(rates),
            "channels": st.integers(1, 3),
            "horizon": st.integers(1, 60),
            "step_std": st.floats(0.0, 0.3),
        },
        {
            "seed": st.integers(0, 9),
            "softness": st.floats(0.001, 1.0),
            "latent_lo": st.floats(-1.0, 0.5),
            "latent_hi": st.floats(0.0, 2.0),
            "thresholds": st.lists(
                st.floats(-1.0, 1.0), min_size=len(rates) - 1, max_size=len(rates), unique=True
            ).map(sorted),
        },
    )


class TestArbitraryModelInputs:
    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_bounds_check_gen_env_exit_0_or_2_without_traceback(self, tmp_path, data):
        command = data.draw(st.sampled_from(["bounds", "check", "gen-env"]))
        rates = data.draw(_RATES)
        if command == "gen-env":
            spec = tmp_path / "spec.json"
            if data.draw(st.integers(0, 3)):
                spec.write_text(json.dumps(data.draw(_drift_spec(rates))))
            else:
                spec.write_bytes(data.draw(_model_csv(len(rates))))  # not JSON
            every = data.draw(st.integers(-1, 4))
            argv = ["--spec", str(spec), "--out", str(tmp_path / "trace.csv"), "--sample-every", str(every)]
        else:
            (tmp_path / "theta.csv").write_bytes(data.draw(_model_csv(len(rates))))
            (tmp_path / "rates.json").write_text(json.dumps(data.draw(_rates_json(rates))))
            argv = ["--theta", str(tmp_path / "theta.csv"), "--rates", str(tmp_path / "rates.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, *argv])
        assert code in (0, 2)
        assert (code == 2) == err.getvalue().startswith("error:")


# Cell texts a table file's fuzzer puts in place of well-formed ones:
# integers past int64 or negative, non-finite numbers, and fields past the
# csv module's 131,072-character limit.
_EXTREMES = st.sampled_from(
    [str(2**63), "1" * 131_073, "nan", "-1", str(10**30), "inf", "0." + "5" * 131_071,
     str(-(2**63) - 1), "-inf", str(2**63 - 1), "1e400", "0"]
)


@st.composite
def _table_file(draw, source: str, n_rates: int) -> bytes:
    """The bytes of a theta CSV or a trace CSV over ``n_rates`` rates,
    well formed or with one flaw: a row added with an extreme first field
    (start step or channel), an extreme cell, a row one field wider or
    narrower, a row repeated, or a non-UTF-8 or NUL byte."""
    channels = draw(st.integers(1, 3))
    prob = st.floats(0.0, 1.0).map(repr)
    if source == "theta_csv":
        header = ["channel", *(f"rate{k}" for k in range(1, n_rates + 1))]
        rows = [[str(c), *(draw(prob) for _ in range(n_rates))] for c in range(1, channels + 1)]
    else:
        header = ["start_step", "channel", "rate_index", "theta"]
        cells = [(c, k) for c in range(1, channels + 1) for k in range(1, n_rates + 1)]
        rows = [["0", str(c), str(k), draw(prob)] for c, k in cells]
        for _ in range(draw(st.integers(0, 4))):
            c, k = draw(st.sampled_from(cells))
            rows.append([str(draw(st.integers(0, 20))), str(c), str(k), draw(prob)])
    table = [header, *rows]
    flaw = draw(st.sampled_from(["none", "first", "cell", "wide", "narrow", "repeat", "bytes"]))
    i = draw(st.integers(flaw != "wide", len(table) - 1))  # only "wide" reaches the header
    if flaw == "first":
        table.append([draw(_EXTREMES), *table[i][1:]])
    elif flaw == "cell":
        table[i][draw(st.integers(0, len(table[i]) - 1))] = draw(_EXTREMES | _CSV_CELL)
    elif flaw == "wide":
        table[i] = [*table[i], draw(prob)]
    elif flaw == "narrow":
        table[i] = table[i][:-1]
    elif flaw == "repeat":
        table.insert(i, list(table[i]))
    data = "".join(",".join(row) + "\n" for row in table).encode()
    if flaw == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\x00", b"\x80\x00"])) + data[at:]
    return data


class TestArbitraryTableFiles:
    @settings(
        derandomize=True,
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_simulate_exits_0_or_2_with_one_error_line(self, tmp_path, data):
        source = data.draw(st.sampled_from(["theta_csv", "trace_csv"]))
        rates = data.draw(_RATES)
        (tmp_path / "table.csv").write_bytes(data.draw(_table_file(source, len(rates))))
        cfg = {"rates": rates, source: "table.csv", "horizon": 16, "seeds": 2,
               "policies": [{"kind": "static"}, {"kind": "kl-ucb"}],
               "out_dir": str(tmp_path / "results")}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(tmp_path / "config.json")])
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
            # A value echoed in the line is cut short, however deep or long.
            assert len(err.getvalue()) < 200, err.getvalue()[:300]
        else:
            assert err.getvalue() == ""


# Texts a JSON file's fuzzer puts in place of a number: non-finite
# literals, which Python's json reads, and integers past int64, float
# range and the interpreter's 4,300-digit limit.
_JSON_EXTREMES = st.sampled_from(
    ["NaN", "Infinity", "-Infinity", str(2**63), str(-(2**63) - 1), str(10**30),
     "1" + "0" * 400, "1e400", "-1e400", "9" * 5_000]
)
_JSON_NUMBER = re.compile(rb"-?\d+(\.\d+)?([eE][-+]?\d+)?")


@st.composite
def _json_file(draw, documents) -> bytes:
    """The bytes of a document from ``documents`` as JSON, as written or
    with one flaw: a number replaced by an extreme, a value (or the whole)
    nested deeply, the text cut short, a key given again with another
    value (the later one wins), or a non-UTF-8 or NUL byte."""
    document = draw(documents)
    data = json.dumps(document).encode()
    flaw = draw(st.sampled_from(["none", "number", "number", "deep", "truncate", "duplicate", "bytes"]))
    if flaw == "number" and _JSON_NUMBER.search(data):
        found = draw(st.sampled_from(list(_JSON_NUMBER.finditer(data))))
        data = data[: found.start()] + draw(_JSON_EXTREMES).encode() + data[found.end() :]
    elif flaw == "deep":
        depth = draw(st.sampled_from([50, 3_000, 100_000]))
        if isinstance(document, dict) and document:
            key = draw(st.sampled_from(sorted(document)))
            inner = json.dumps(document[key]).encode()
            data = json.dumps({**document, key: "@"}).encode().replace(
                b'"@"', b"[" * depth + inner + b"]" * depth
            )
        else:
            data = b"[" * depth + data + b"]" * depth
    elif flaw == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif flaw == "duplicate" and isinstance(document, dict) and document:
        key = draw(st.sampled_from(sorted(document)))
        again = json.dumps({key: draw(_WRONG | st.just(document[key]))}).encode()
        data = data[:-1] + b", " + again[1:]
    elif flaw == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\x00", b"\x80\x00"])) + data[at:]
    return data


class TestArbitraryJsonFiles:
    """The file-content fuzzer for the JSON inputs: the config
    (``simulate``), the rates file (``bounds``, ``check``) and the drift
    spec (``gen-env``)."""

    @settings(
        derandomize=True,
        max_examples=500,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_each_command_exits_0_or_2_with_one_error_line(self, tmp_path, monkeypatch, data):
        monkeypatch.chdir(tmp_path)  # the default out_dir is relative
        command = data.draw(st.sampled_from(["simulate", "bounds", "check", "gen-env"]))
        rates = data.draw(_RATES)
        if command == "simulate":
            documents = _configs(str(tmp_path / "results"))
            argv = ["--config", "input.json"]
        elif command == "gen-env":
            documents = _drift_spec(rates)
            argv = ["--spec", "input.json", "--out", "trace.csv"]
        else:
            documents = _rates_json(rates)
            write_theta_csv(tmp_path / "theta.csv", np.full((2, len(rates)), 0.5))
            argv = ["--theta", "theta.csv", "--rates", "input.json"]
        (tmp_path / "input.json").write_bytes(data.draw(_json_file(documents)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, *argv])
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""
