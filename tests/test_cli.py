"""End-to-end tests of the command-line interface.

Each test invokes carafe.cli.main with argv and inspects exit codes and the
files written under a temp directory. Determinism tests compare report bytes
across repeat runs.
"""

import argparse
import csv
import json
import math
from pathlib import Path

import pytest

from carafe import cli
from carafe.baselines import DOWN_KINDS, UP_KINDS
from carafe.cli import build_parser, main


def _read_json(path):
    return json.loads(Path(path).read_text())


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--banana", "3"])
        assert exc.value.code == 2


_DTYPES = ("double", "single")
_COMMON = [
    (("--config",), "config", None, None),
    (("--seed",), "seed", int, None),
    (("--threads",), "threads", int, None),
    (("--out",), "out", None, None),
]
_TRAIN_SWEEP_HEAD = [
    (("--task",), "task", None, ("super_res", "inpaint", "seg2")),
    (("--arch",), "arch", None, ("upsampler", "bottleneck", "fpn")),
]
_TRAIN_SWEEP_RUN = [
    (("--size",), "size", int, None),
    (("--sigma",), "sigma", int, None),
    (("--channels",), "channels", int, None),
    (("--epochs",), "epochs", int, None),
    (("--lr",), "lr", float, None),
    (("--momentum",), "momentum", float, None),
    (("--weight-decay",), "weight_decay", float, None),
    (("--train-count",), "train_count", int, None),
    (("--eval-count",), "eval_count", int, None),
]

# (option strings, dest, type, choices) of every flag, in parser order.
CLI_SURFACE = {
    "gradcheck": [
        (("--ops",), "ops", None, None),
        (("--tol",), "tol", float, None),
        (("--eps",), "eps", float, None),
    ] + _COMMON,
    "bench": [
        (("--ops",), "ops", None, None),
        (("--shape",), "shape", None, None),
        (("--sigma",), "sigma", int, None),
        (("--reps",), "reps", int, None),
        (("--warmup",), "warmup", int, None),
        (("--dtype",), "dtype", None, _DTYPES),
    ] + _COMMON,
    "train": _TRAIN_SWEEP_HEAD + [
        (("--operator",), "operator", None,
         ("carafe", "nearest_up", "bilinear_up", "transposed_conv",
          "nearest_plus_conv", "bilinear_plus_conv", "max_pool", "avg_pool",
          "strided_conv", "spatial_attention")),
    ] + _TRAIN_SWEEP_RUN + [
        (("--c-mid",), "c_mid", int, None),
        (("--k-encoder",), "k_encoder", int, None),
        (("--k-reassembly",), "k_reassembly", int, None),
        (("--normalizer",), "normalizer", None,
         ("softmax", "sigmoid", "sigmoid_norm")),
        (("--compressor-norm",), "compressor_norm", None,
         ("on", "off", "default")),
        (("--dtype",), "dtype", None, _DTYPES),
    ] + _COMMON,
    "sweep": _TRAIN_SWEEP_HEAD + _TRAIN_SWEEP_RUN + [
        (("--c-mid-grid",), "c_mid_grid", None, None),
        (("--kernel-grid",), "kernel_grid", None, None),
        (("--normalizer-grid",), "normalizer_grid", None, None),
        (("--dtype",), "dtype", None, _DTYPES),
    ] + _COMMON,
}

DEFAULTS = {"gradcheck": cli._GRADCHECK_DEFAULTS, "bench": cli._BENCH_DEFAULTS,
            "train": cli._TRAIN_DEFAULTS, "sweep": cli._SWEEP_DEFAULTS}


def _subparsers(parser):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flag_value(type_, choices):
    """A command-line string for one flag and the value it parses to."""
    if choices is not None:
        return choices[-1], choices[-1]
    if type_ is int:
        return "7", 7
    if type_ is float:
        return "0.5", 0.5
    return "x", "x"


class TestCliSurface:
    def test_subcommands(self):
        assert list(_subparsers(build_parser())) == list(CLI_SURFACE)

    @pytest.mark.parametrize("command", list(CLI_SURFACE))
    def test_flags_dests_types_and_choices(self, command):
        sub = _subparsers(build_parser())[command]
        got = [(tuple(a.option_strings), a.dest, a.type,
                None if a.choices is None else tuple(a.choices))
               for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        assert got == CLI_SURFACE[command]
        assert all(a.default is None for a in sub._actions
                   if not isinstance(a, argparse._HelpAction))

    @pytest.mark.parametrize("command", list(CLI_SURFACE))
    def test_every_config_key_has_a_flag(self, command):
        dests = {dest for _, dest, _, _ in CLI_SURFACE[command]}
        assert dests - {"config"} == set(DEFAULTS[command])

    @pytest.mark.parametrize("command", list(CLI_SURFACE))
    def test_every_config_key_set_by_flag_and_by_file(self, command, tmp_path):
        parser = build_parser()
        defaults = DEFAULTS[command]
        for (flag,), dest, type_, choices in CLI_SURFACE[command]:
            if dest == "config":
                continue
            text, value = _flag_value(type_, choices)
            args = parser.parse_args([command, flag, text])
            assert cli._merge_config(parser, args, defaults)[dest] == value

            path = tmp_path / f"{dest}.json"
            path.write_text(json.dumps({dest: "from-file"}))
            args = parser.parse_args([command, "--config", str(path)])
            assert cli._merge_config(parser, args, defaults)[dest] == "from-file"


class TestGradcheckCommand:
    def test_single_op_passes(self, tmp_path):
        rc = main(["gradcheck", "--ops", "relu", "--out", str(tmp_path)])
        assert rc == 0
        payload = _read_json(tmp_path / "gradcheck.json")
        assert payload["schema"] == 1
        assert payload["command"] == "gradcheck"
        assert payload["passed"] is True
        assert [r["op"] for r in payload["results"]] == ["relu"]

    def test_unknown_op_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--ops", "warp", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "warp" in capsys.readouterr().err

    def test_impossible_tolerance_fails_with_exit_1(self, tmp_path):
        rc = main(["gradcheck", "--ops", "conv2d", "--tol", "0",
                   "--out", str(tmp_path)])
        assert rc == 1
        payload = _read_json(tmp_path / "gradcheck.json")
        assert payload["passed"] is False

    def test_stanza_records_config_and_seed(self, tmp_path):
        main(["gradcheck", "--ops", "relu", "--seed", "3",
              "--out", str(tmp_path)])
        payload = _read_json(tmp_path / "gradcheck.json")
        assert payload["seed"] == 3
        assert payload["config"]["ops"] == "relu"
        assert payload["timing"] == "excluded"


class TestBenchCommand:
    def test_csv_and_json_written(self, tmp_path):
        rc = main(["bench", "--ops", "nearest_up,avg_pool",
                   "--shape", "1,2,8,8", "--reps", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["operator"] for r in rows] == ["nearest_up", "avg_pool"]
        assert set(rows[0]) == {"operator", "direction", "shape", "sigma",
                                "median_ns", "p90_ns", "checksum"}
        payload = _read_json(tmp_path / "bench.json")
        assert payload["schema"] == 1
        assert len(payload["results"]) == 2

    def test_single_repetition_p90_equals_median(self, tmp_path):
        main(["bench", "--ops", "nearest_up", "--shape", "1,1,4,4",
              "--reps", "1", "--out", str(tmp_path)])
        with open(tmp_path / "bench.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["p90_ns"] == row["median_ns"]

    def test_bad_shape_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--shape", "4,4", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_indivisible_shape_runs(self, tmp_path):
        # ceil mode: a 7x7 map downsamples by 2 to 4x4
        rc = main(["bench", "--ops", "carafe_down", "--shape", "1,2,7,7",
                   "--sigma", "2", "--out", str(tmp_path)])
        assert rc == 0
        rows = _read_json(tmp_path / "bench.json")["results"]
        assert [(r["operator"], r["direction"], r["shape"], r["sigma"])
                for r in rows] == [("carafe_down", "down", "1x2x7x7", 2)]

    def test_default_roster_runs_in_each_name_direction(self, tmp_path):
        # a name ending in _up/_down runs that way; any other name is a
        # baseline kind with one direction
        rc = main(["bench", "--shape", "1,2,5,5", "--reps", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = _read_json(tmp_path / "bench.json")["results"]
        assert [r["operator"] for r in rows] == list(cli._BENCH_OP_NAMES)
        for row in rows:
            name = row["operator"]
            implied = ("up" if name in UP_KINDS else
                       "down" if name in DOWN_KINDS else name.rsplit("_", 1)[1])
            assert row["direction"] == implied, name
            assert row["shape"] == "1x2x5x5"
            assert math.isfinite(float(row["checksum"]))

    def test_timings_absent_from_json(self, tmp_path):
        # wall-clock numbers live only in the CSV; the JSON report stays
        # byte-deterministic
        main(["bench", "--ops", "nearest_up", "--shape", "1,1,4,4",
              "--reps", "1", "--out", str(tmp_path)])
        payload = _read_json(tmp_path / "bench.json")
        assert payload["timing"] == "excluded"
        assert all("median_ns" not in r and "p90_ns" not in r
                   for r in payload["results"])


class TestTrainCommand:
    def test_writes_report_and_losses(self, tmp_path):
        rc = main(["train", "--task", "super_res", "--size", "8",
                   "--epochs", "3", "--operator", "nearest_up",
                   "--channels", "4", "--out", str(tmp_path)])
        assert rc == 0
        report = _read_json(tmp_path / "report.json")
        assert report["status"] == "ok"
        assert report["result"]["operator"] == "nearest_up"
        assert len(report["result"]["losses"]) == 3
        with open(tmp_path / "losses.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [r["step"] for r in rows] == ["0", "1", "2"]

    def test_super_res_requires_upsampler(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", "super_res", "--arch", "bottleneck",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_carafe_config_flags_flow_through(self, tmp_path):
        rc = main(["train", "--task", "seg2", "--size", "8", "--epochs", "2",
                   "--operator", "carafe", "--c-mid", "4", "--k-encoder", "3",
                   "--k-reassembly", "3", "--channels", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = _read_json(tmp_path / "report.json")
        assert report["config"]["c_mid"] == 4
        assert report["config"]["k_reassembly"] == 3
        assert report["result"]["metric_name"] == "iou"

    def test_divergence_exits_1(self, tmp_path):
        rc = main(["train", "--task", "super_res", "--size", "8",
                   "--epochs", "300", "--lr", "50.0", "--operator",
                   "nearest_plus_conv", "--channels", "4",
                   "--out", str(tmp_path)])
        assert rc == 1
        report = _read_json(tmp_path / "report.json")
        assert report["status"] == "diverged"

    def test_invalid_size_sigma_pair_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--size", "9", "--sigma", "2",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--size", "3"],
        ["sweep", "--sigma", "3"],
        ["train", "--channels", "0"],
        ["train", "--task", "seg2", "--operator", "nearest_up"],
        ["sweep", "--kernel-grid", "3"],
        ["sweep", "--c-mid-grid", "0"],
        ["sweep", "--normalizer-grid", "bogus"],
        # carafe options are checked whatever kind fills the slot
        ["train", "--operator", "nearest_up", "--k-encoder", "2", "--size", "8",
         "--epochs", "1"],
    ])
    def test_bad_task_or_net_is_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_sweep_divergence_is_diverged(self, tmp_path):
        rc = main(["sweep", "--task", "super_res", "--size", "8",
                   "--channels", "4", "--epochs", "300", "--lr", "1000",
                   "--c-mid-grid", "2", "--kernel-grid", "1:3",
                   "--out", str(tmp_path)])
        assert rc == 1
        cells = _read_json(tmp_path / "sweep.json")["cells"]
        assert [c["status"] for c in cells] == ["diverged"]
        assert "diverged" in (tmp_path / "summary.csv").read_text()

    def test_sweep_zero_channels_fails_every_cell(self, tmp_path):
        rc = main(["sweep", "--channels", "0", "--epochs", "1",
                   "--c-mid-grid", "2,4", "--kernel-grid", "1:3",
                   "--out", str(tmp_path)])
        assert rc == 1
        cells = _read_json(tmp_path / "sweep.json")["cells"]
        assert len(cells) == 2
        assert all(c["status"] == "error" and "must be >= 1" in c["error"]
                   for c in cells)


# Each command's keys that must be > 0, and settings small enough that a
# command which wrongly accepted the zero would still finish quickly.
_POSITIVE_CASES = [("gradcheck", "eps"), ("bench", "sigma"), ("bench", "reps"),
                   ("bench", "warmup")] + [
    (command, key) for command in ("train", "sweep")
    for key in ("sigma", "epochs", "train_count", "eval_count")] + [
    (command, "threads") for command in ("gradcheck", "bench", "train", "sweep")]
# Every command's float keys.
_FLOAT_CASES = [(command, key) for command, defaults in DEFAULTS.items()
                for key in defaults if cli._FLAGS[key].get("type") is float]
_SMALL = {
    "gradcheck": {"ops": "relu"},
    "bench": {"ops": "nearest_up", "shape": "1,1,4,4", "reps": 1},
    "train": {"size": 8, "channels": 4, "epochs": 2, "operator": "nearest_up"},
    "sweep": {"size": 8, "channels": 4, "epochs": 2, "c_mid_grid": "2",
              "kernel_grid": "1:3"},
}


class TestPositiveSettings:
    def test_cases_cover_every_positive_key(self):
        assert {key for _, key in _POSITIVE_CASES} == cli._POSITIVE

    @pytest.mark.parametrize("by", ["flag", "file"])
    @pytest.mark.parametrize("command, key", _POSITIVE_CASES)
    def test_zero_is_usage_error_before_any_report(self, tmp_path, capsys,
                                                   command, key, by):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**_SMALL[command],
                                   **({key: 0} if by == "file" else {})}))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if by == "flag":
            argv += ["--" + key.replace("_", "-"), "0"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("by", ["flag", "file"])
    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_negative_seed_is_usage_error_before_any_report(
            self, tmp_path, capsys, command, by):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**_SMALL[command],
                                   **({"seed": -1} if by == "file" else {})}))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if by == "flag":
            argv += ["--seed", "-1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("by", ["flag", "file"])
    @pytest.mark.parametrize("command, key", _FLOAT_CASES)
    def test_non_finite_float_is_usage_error_before_any_report(
            self, tmp_path, capsys, command, key, by, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**_SMALL[command],
                                   **({key: float(value)} if by == "file" else {})}))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if by == "flag":
            argv.append(f"--{key.replace('_', '-')}={value}")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "seg2", "epochs": 2, "size": 8,
                                   "channels": 4, "operator": "avg_pool"}))
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        report = _read_json(tmp_path / "report.json")
        assert report["config"]["task"] == "seg2"
        assert report["config"]["operator"] == "avg_pool"

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "size": 8, "channels": 4,
                                   "operator": "avg_pool", "task": "seg2"}))
        rc = main(["train", "--config", str(cfg), "--operator", "max_pool",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = _read_json(tmp_path / "report.json")
        assert report["config"]["operator"] == "max_pool"

    @pytest.mark.parametrize("command, config", [
        ("train", {"k_encoder": "x"}), ("train", {"c_mid": "x"}),
        ("gradcheck", {"tol": "x"}), ("gradcheck", {"eps": "x"}),
        ("bench", {"sigma": "x"}), ("bench", {"warmup": "x"}),
        *[(command, {"seed": "x"}) for command in DEFAULTS],
        *[(command, {"dtype": "half"}) for command in ("bench", "train", "sweep")],
        # Values that int() or float() would coerce into a run.
        *[(command, {"seed": seed}) for command in DEFAULTS
          for seed in (1.5, True, 2.0, "3")],
        ("gradcheck", {"tol": True}), ("train", {"epochs": 1.9}),
        ("bench", {"reps": 1.7}), ("bench", {"warmup": True}),
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, command,
                                             config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_bad_threads_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                        command):
        for value in ("x", "0", "-5"):
            monkeypatch.setenv("CARAFE_THREADS", value)
            for argv in ([command], [command, "--threads", value]):
                with pytest.raises(SystemExit) as exc:
                    main(argv + ["--out", str(tmp_path)])
                assert exc.value.code == 2
                assert "Traceback" not in capsys.readouterr().err

    def test_json_bool_compressor_norm_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"compressor_norm": True, "task": "seg2",
                                   "size": 8, "epochs": 1, "channels": 4,
                                   "c_mid": 4}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert _read_json(tmp_path / "report.json")["config"]["compressor_norm"] is True

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epohcs": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestDeterminism:
    def test_gradcheck_json_identical_across_runs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            main(["gradcheck", "--ops", "relu,softmax_group", "--seed", "1",
                  "--out", str(out)])
        ja = (a / "gradcheck.json").read_bytes()
        jb = (b / "gradcheck.json").read_bytes()
        assert ja.replace(str(a).encode(), b"OUT") == \
            jb.replace(str(b).encode(), b"OUT")

    def test_train_json_identical_across_runs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            main(["train", "--task", "super_res", "--size", "8", "--epochs",
                  "3", "--channels", "4", "--c-mid", "4", "--seed", "2",
                  "--out", str(out)])
        ja = (a / "report.json").read_bytes()
        jb = (b / "report.json").read_bytes()
        assert ja.replace(str(a).encode(), b"OUT") == \
            jb.replace(str(b).encode(), b"OUT")

    def test_sweep_outputs_identical_across_threaded_runs(self, tmp_path):
        # two worker threads finish cells in either order; every file still
        # lists them in grid order
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            main(["sweep", "--task", "seg2", "--size", "8", "--epochs", "2",
                  "--channels", "4", "--c-mid-grid", "2,4",
                  "--kernel-grid", "1:3,3:5", "--threads", "2",
                  "--out", str(out)])
        names = [p.relative_to(outs[0]) for p in sorted(outs[0].rglob("*"))
                 if p.is_file()]
        assert len(names) == 6
        assert names == [p.relative_to(outs[1])
                         for p in sorted(outs[1].rglob("*")) if p.is_file()]
        for name in names:
            a, b = ((out / name).read_bytes().replace(str(out).encode(), b"OUT")
                    for out in outs)
            assert a == b, name


class TestSweepCommand:
    def test_grid_size_and_outputs(self, tmp_path):
        rc = main(["sweep", "--task", "seg2", "--size", "8", "--epochs", "2",
                   "--channels", "4", "--c-mid-grid", "2,4",
                   "--kernel-grid", "1:3,3:5", "--out", str(tmp_path)])
        assert rc == 0
        payload = _read_json(tmp_path / "sweep.json")
        assert len(payload["cells"]) == 4
        cell_files = sorted((tmp_path / "cells").glob("*.json"))
        assert len(cell_files) == 4
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4

    def test_diagonal_flag_marks_matching_cells(self, tmp_path):
        main(["sweep", "--task", "seg2", "--size", "8", "--epochs", "2",
              "--channels", "4", "--c-mid-grid", "4",
              "--kernel-grid", "1:3,3:3", "--out", str(tmp_path)])
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = {r["cell"]: r for r in csv.DictReader(fh)}
        flags = {name: row["diagonal"] for name, row in rows.items()}
        # 1:3 satisfies k_enc == k_re - 2; 3:3 does not
        by_kernel = {name.split("_enc")[1]: flag for name, flag in flags.items()}
        assert by_kernel["1_re3_softmax"] == "yes"
        assert by_kernel["3_re3_softmax"] == "no"

    def test_bad_kernel_grid_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kernel-grid", "2:4", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CARAFE_THREADS", "2")
        rc = main(["sweep", "--task", "seg2", "--size", "8", "--epochs", "2",
                   "--channels", "4", "--c-mid-grid", "2,4",
                   "--kernel-grid", "1:3", "--out", str(tmp_path)])
        assert rc == 0
        payload = _read_json(tmp_path / "sweep.json")
        assert payload["config"]["threads"] == 2
