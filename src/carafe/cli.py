"""Command-line entry point: gradcheck, bench, train, and sweep subcommands.

Configuration precedence is defaults < JSON config file (--config) < explicit
flags. Every run writes a reproducibility stanza (schema, tool, version,
command, seed, full merged config) into its JSON report, and JSON reports
never contain wall-clock values — timings live only in bench CSV columns, so
re-running any (config, seed) pair reproduces the JSON byte for byte.
Every command runs on the exact tier (see carafe.nn), so no report depends
on BLAS's summation order or thread count.

Every setting is checked before a run starts, and a bad one is a usage
error: its type, choices and sign in _load_config, comma lists in
_parse_list, and the carafe options by CarafeConfig, through SlotSpec.

Exit codes: 0 success, 1 check/experiment failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextvars
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .demo import (ARCHITECTURES, SLOT_KINDS, TASK_KINDS, SlotSpec, ToyTask,
                   make_slot_layer, seeded_net, train)
from .errors import CarafeError, TrainingDiverged
from .gradcheck import check_op, registered_ops
from .nn import _at_least, exact_tier
from .reassembly import NORMALIZERS
from .tensor import Tensor

_DTYPES = {"single": np.float32, "double": np.float64}
_TRI_STATE = {"on": True, "off": False, "default": None}

# A row's position here is its seed key, so appending keeps every checksum.
_BENCH_OP_NAMES = (
    "nearest_up", "bilinear_up", "transposed_conv", "nearest_plus_conv",
    "bilinear_plus_conv", "max_pool", "avg_pool", "strided_conv",
    "spatial_attention_down", "spatial_attention_up", "carafe_down",
    "carafe_up",
)

_GRADCHECK_DEFAULTS = {
    "ops": "all", "tol": 1e-5, "eps": 1e-5, "seed": 0, "threads": None,
    "out": "runs/gradcheck",
}
_BENCH_DEFAULTS = {
    "ops": ",".join(_BENCH_OP_NAMES), "shape": "1,16,16,16", "sigma": 2,
    "reps": 5, "warmup": 1, "dtype": "double", "seed": 0, "threads": None,
    "out": "runs/bench",
}
_TRAIN_DEFAULTS = {
    "task": "super_res", "arch": None, "operator": "carafe", "size": 16,
    "sigma": 2, "channels": 8, "epochs": 60, "lr": 0.05, "momentum": 0.9,
    "weight_decay": 1e-4, "train_count": 24, "eval_count": 8,
    "c_mid": None, "k_encoder": 3, "k_reassembly": 5, "normalizer": "softmax",
    "compressor_norm": "default", "dtype": "double", "seed": 0,
    "threads": None, "out": "runs/train",
}
_SWEEP_DEFAULTS = {
    "task": "super_res", "arch": None, "size": 16, "sigma": 2, "channels": 8,
    "epochs": 30, "lr": 0.05, "momentum": 0.9, "weight_decay": 1e-4,
    "train_count": 24, "eval_count": 8, "c_mid_grid": "8,16",
    "kernel_grid": "1:3,3:5", "normalizer_grid": "softmax",
    "dtype": "double", "seed": 0, "threads": None, "out": "runs/sweep",
}

# One flag per config key, --key-name with dest key_name. A subcommand gets
# the flags of its defaults table; help shows the table's default unless
# that is None, in which case the help text says what None means.
_FLAGS = {
    "ops": dict(help="comma-separated op names"),
    "tol": dict(type=float, help="relative-error pass bar"),
    "eps": dict(type=float, help="finite-difference step"),
    "shape": dict(help="input shape N,C,H,W"),
    "sigma": dict(type=int, help="resize ratio"),
    "reps": dict(type=int, help="timed repetitions"),
    "warmup": dict(type=int, help="warmup runs"),
    "dtype": dict(choices=sorted(_DTYPES), help="element type"),
    "task": dict(choices=TASK_KINDS, help="toy task"),
    "arch": dict(choices=ARCHITECTURES,
                 help="mini net (default upsampler for super_res, "
                      "else bottleneck)"),
    "operator": dict(choices=SLOT_KINDS,
                     help="what fills the resampler slot"),
    "size": dict(type=int, help="image size"),
    "channels": dict(type=int, help="trunk width"),
    "epochs": dict(type=int, help="SGD steps"),
    "lr": dict(type=float, help="learning rate"),
    "momentum": dict(type=float, help="SGD momentum"),
    "weight_decay": dict(type=float, help="L2 coefficient"),
    "train_count": dict(type=int, help="training samples"),
    "eval_count": dict(type=int, help="held-out samples"),
    "c_mid": dict(type=int,
                  help="compressed channels (default 16 down / 64 up)"),
    "k_encoder": dict(type=int, help="encoder kernel size"),
    "k_reassembly": dict(type=int, help="reassembly kernel size"),
    "normalizer": dict(choices=NORMALIZERS, help="kernel normalizer"),
    "compressor_norm": dict(choices=tuple(_TRI_STATE),
                            help="compressor norm; 'default' follows the "
                                 "direction"),
    "c_mid_grid": dict(help="comma list of compressed-channel counts"),
    "kernel_grid": dict(help="comma list of k_enc:k_re pairs, e.g. 1:3,3:5,5:7"),
    "normalizer_grid": dict(help="comma list drawn from "
                                 + ",".join(NORMALIZERS)),
    "config": dict(help="JSON config file; flags override it"),
    "seed": dict(type=int, help="base RNG seed"),
    "threads": dict(type=int,
                    help="sweep worker threads; the other commands check and "
                         "record it only (default: $CARAFE_THREADS or 1)"),
    "out": dict(help="output directory for reports"),
}
# Every subcommand ends with --config and then these flags.
_COMMON_KEYS = ("seed", "threads", "out")
# Config keys whose value must be > 0 (an integer >= 1), and those that
# must be >= 0.
_POSITIVE = {"eps", "sigma", "reps", "warmup", "epochs", "train_count",
             "eval_count", "threads"}
_NON_NEGATIVE = {"seed"}


# ---------------------------------------------------------------------------
# config plumbing


def _merge_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  defaults: dict) -> dict:
    """defaults <- config file <- explicit flags; reject unknown file keys."""
    merged = dict(defaults)
    path = getattr(args, "config", None)
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file {path}: {exc}")
        if not isinstance(raw, dict):
            parser.error(f"config file {path} must hold a JSON object")
        unknown = sorted(set(raw) - set(defaults))
        if unknown:
            parser.error(
                f"unknown config keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(defaults))})")
        merged.update(raw)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _load_config(parser, args, defaults: dict) -> tuple[dict, dict]:
    """(merged, conf). merged is _merge_config's, as the report records it,
    with threads resolved ($CARAFE_THREADS, parsed as text, else 1, when
    unset) to its int. conf holds each value as _config_value checks it,
    then checked against its _FLAGS choices. None passes where the default
    is None, and compressor_norm also takes a JSON true/false/null. A value
    that fails is a usage error."""
    merged = _merge_config(parser, args, defaults)
    if merged["threads"] is None:
        merged["threads"] = _typed(parser, "threads",
                                   os.environ.get("CARAFE_THREADS", "1"), int, "int")
    conf = {}
    for key, value in merged.items():
        spec = _FLAGS[key]
        unset = value is None and defaults[key] is None
        tri_state = key == "compressor_norm" and (value is None or isinstance(value, bool))
        if unset or tri_state:
            conf[key] = value
            continue
        conf[key] = _config_value(parser, key, value)
        if "choices" in spec and conf[key] not in spec["choices"]:
            parser.error(f"{key} must be one of {spec['choices']}, got {value!r}")
    merged["threads"] = conf["threads"]
    return merged, conf


def _config_value(parser, key: str, value):
    """value as its flag parses, checked, not coerced. An integer key takes
    an integer, not a bool, through nn._at_least: >= 1 for a _POSITIVE key,
    >= 0 for a _NON_NEGATIVE one, other bounds being the library's. A float
    key takes a finite number, not a bool (> 0 for a _POSITIVE key), and a
    key without a type a string. A value that fails is a usage error."""
    kind = _FLAGS[key].get("type", str)
    if kind is int:
        low = 1 if key in _POSITIVE else 0 if key in _NON_NEGATIVE else -math.inf
        try:
            return _at_least(key, value, low, ValueError)
        except ValueError as exc:
            parser.error(str(exc))
    what = "a finite number" if kind is float else "a string"
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else str):
        parser.error(f"{key} must be {what}, got {value!r}")
    value = _typed(parser, key, value, kind, what)
    if kind is float and not math.isfinite(value):
        parser.error(f"{key} must be {what}, got {value!r}")
    if key in _POSITIVE and value <= 0:
        parser.error(f"{key} must be > 0, got {value!r}")
    return value


def _typed(parser, key: str, value, convert, what: str):
    """convert(value); a value convert cannot take is a usage error."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        parser.error(f"{key} must be {what}, got {value!r}")


def _parse_list(parser, key: str, text: str, convert=str,
                choices=None) -> list:
    """The items of the comma list text, blanks dropped, each converted and,
    given choices, one of them. A malformed (see _FLAGS[key]'s help) or
    unknown item, or an empty list, is a usage error."""
    items = [_typed(parser, key, s.strip(), convert, _FLAGS[key]["help"])
             for s in text.split(",") if s.strip()]
    unknown = [i for i in items if choices is not None and i not in choices]
    if unknown:
        parser.error(f"unknown {key}: {', '.join(unknown)}; "
                     f"choose from {', '.join(choices)}")
    if not items:
        parser.error(f"empty {key}")
    return items


def _kernel_pair(item: str) -> tuple:
    k_enc, k_re = item.split(":")
    return int(k_enc), int(k_re)


def _or_usage_error(parser, build, *args, **kwargs):
    """build(*args, **kwargs); a CarafeError it raises is a usage error."""
    try:
        return build(*args, **kwargs)
    except CarafeError as exc:
        parser.error(str(exc))


def _stanza(command: str, merged: dict) -> dict:
    return {
        "schema": 1,
        "tool": "carafe",
        "version": __version__,
        "command": command,
        "seed": merged["seed"],
        "config": dict(merged),
        "timing": "excluded",
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _out_dir(conf: dict) -> Path:
    out = Path(conf["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# gradcheck


def _cmd_gradcheck(parser, args) -> int:
    merged, conf = _load_config(parser, args, _GRADCHECK_DEFAULTS)
    registry = registered_ops()
    names = (registry if conf["ops"] == "all"
             else _parse_list(parser, "ops", conf["ops"], choices=registry))
    results = [check_op(name, seed=conf["seed"], tol=conf["tol"], eps=conf["eps"])
               for name in names]
    payload = _stanza("gradcheck", merged)
    payload["results"] = [r.to_payload() for r in results]
    payload["passed"] = all(r.passed for r in results)
    out = _out_dir(conf)
    _write_json(out / "gradcheck.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------
# bench


def _bench_case(name: str, shape: tuple, sigma: int, seed: int, dtype):
    """Build (callable, direction) for one roster entry: a slot kind runs in
    its only direction, any other name reads as <kind>_<direction>."""
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, _BENCH_OP_NAMES.index(name))))
    x = Tensor(rng.standard_normal(shape).astype(dtype))
    kind, direction = (name, None) if name in SLOT_KINDS else name.rsplit("_", 1)
    layer = make_slot_layer(SlotSpec(kind), direction, sigma, shape[1], rng, dtype)
    return lambda: layer.forward(x), layer.direction


def _cmd_bench(parser, args) -> int:
    merged, conf = _load_config(parser, args, _BENCH_DEFAULTS)
    names = _parse_list(parser, "ops", conf["ops"], choices=_BENCH_OP_NAMES)
    shape = tuple(_parse_list(parser, "shape", conf["shape"].replace("x", ","),
                              int))
    if len(shape) != 4 or min(shape) < 1:
        parser.error(f"bad shape {conf['shape']!r}; expected four positive dims")
    sigma, reps, warmup = conf["sigma"], conf["reps"], conf["warmup"]
    shape_txt = "x".join(str(s) for s in shape)

    csv_rows = []
    json_rows = []
    for name in names:
        fn, direction = _bench_case(name, shape, sigma, conf["seed"],
                                    _DTYPES[conf["dtype"]])
        for _ in range(warmup):
            y = fn()
        times = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            y = fn()
            times.append(time.perf_counter_ns() - t0)
        times.sort()
        n = len(times)
        median = times[n // 2] if n % 2 else (times[n // 2 - 1] + times[n // 2]) // 2
        p90 = times[min(n - 1, max(0, -(-9 * n // 10) - 1))]
        checksum = repr(float(np.sum(y.data, dtype=np.float64)))
        csv_rows.append([name, direction, shape_txt, sigma, median, p90, checksum])
        json_rows.append({"operator": name, "direction": direction,
                          "shape": shape_txt, "sigma": sigma,
                          "checksum": checksum})

    out = _out_dir(conf)
    header = ["operator", "direction", "shape", "sigma", "median_ns",
              "p90_ns", "checksum"]
    _write_csv(out / "bench.csv", header, csv_rows)
    payload = _stanza("bench", merged)
    payload["results"] = json_rows
    _write_json(out / "bench.json", payload)
    print(",".join(header))
    for row in csv_rows:
        print(",".join(str(v) for v in row))
    return 0


# ---------------------------------------------------------------------------
# train


def _arch_for(parser, conf: dict) -> str:
    task = conf["task"]
    arch = conf["arch"]
    if arch is None:
        arch = "upsampler" if task == "super_res" else "bottleneck"
    if task == "super_res" and arch != "upsampler":
        parser.error("super_res needs arch=upsampler (output is sigma x input)")
    if task != "super_res" and arch == "upsampler":
        parser.error(f"arch=upsampler changes spatial size; task {task} "
                     "needs bottleneck or fpn")
    return arch


def _run(conf: dict, slot: SlotSpec, task: ToyTask, train_kwargs: dict):
    """(status, error, report) of train() on the net seeded_net builds: ok,
    diverged, or error for any other CarafeError (a net that cannot be
    built, say); report is None unless the status is ok."""
    try:
        net = seeded_net(conf["arch"], slot, conf["channels"], conf["sigma"],
                         task.seed, train_kwargs["dtype"])
        return "ok", None, train(net, task, **train_kwargs)
    except TrainingDiverged as exc:
        return "diverged", str(exc), None
    except CarafeError as exc:
        return "error", str(exc), None


def _setup_run(parser, args, defaults: dict):
    """Shared head of train and sweep: the merged and typed configs (arch
    resolved in both), the toy task, and the keyword arguments of train()."""
    merged, conf = _load_config(parser, args, defaults)
    merged["arch"] = conf["arch"] = _arch_for(parser, conf)
    task = _or_usage_error(parser, ToyTask, kind=conf["task"], size=conf["size"],
                           sigma=conf["sigma"], seed=conf["seed"])
    train_kwargs = {key: conf[key] for key in (
        "epochs", "lr", "momentum", "weight_decay", "train_count",
        "eval_count")}
    train_kwargs["dtype"] = _DTYPES[conf["dtype"]]
    return merged, conf, task, train_kwargs


def _cmd_train(parser, args) -> int:
    merged, conf, task, train_kwargs = _setup_run(parser, args, _TRAIN_DEFAULTS)
    slot = _or_usage_error(
        parser, SlotSpec, conf["operator"], c_mid=conf["c_mid"],
        k_encoder=conf["k_encoder"], k_reassembly=conf["k_reassembly"],
        normalizer=conf["normalizer"],
        compressor_norm=_TRI_STATE.get(conf["compressor_norm"],
                                       conf["compressor_norm"]))
    status, error, report = _run(conf, slot, task, train_kwargs)
    if status == "error":
        parser.error(error)

    out = _out_dir(conf)
    payload = _stanza("train", merged)
    payload["status"] = status
    if status == "diverged":
        payload["error"] = error
        _write_json(out / "report.json", payload)
        print(f"training diverged: {error}", file=sys.stderr)
        return 1
    payload["result"] = report.to_payload()
    _write_json(out / "report.json", payload)
    _write_csv(out / "losses.csv", ["step", "loss"],
               [[i, repr(loss)] for i, loss in enumerate(report.losses)])
    print(f"{report.operator} on {task.kind}: final loss "
          f"{report.final_loss:.6f}, {report.metric_name} "
          f"{report.final_metric:.4f} -> {out / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(parser, args) -> int:
    merged, conf, task, train_kwargs = _setup_run(parser, args, _SWEEP_DEFAULTS)
    grid = product(
        _parse_list(parser, "c_mid_grid", conf["c_mid_grid"], int),
        _parse_list(parser, "kernel_grid", conf["kernel_grid"], _kernel_pair),
        _parse_list(parser, "normalizer_grid", conf["normalizer_grid"]))
    cells = []
    for idx, (c_mid, (k_enc, k_re), norm) in enumerate(grid):
        slot = _or_usage_error(parser, SlotSpec, "carafe", c_mid=c_mid,
                               k_encoder=k_enc, k_reassembly=k_re,
                               normalizer=norm)
        cells.append((slot, {
            "index": idx,
            "name": f"cell{idx:03d}_cmid{c_mid}_enc{k_enc}_re{k_re}_{norm}",
            "c_mid": c_mid, "k_encoder": k_enc, "k_reassembly": k_re,
            "normalizer": norm, "diagonal": k_enc == k_re - 2,
        }))

    def run_cell(cell: tuple) -> dict:
        # Every cell reuses the same base seed so cells differ only in the
        # swept parameters; each builds its own rngs/net/data (fully isolated).
        slot, row = cell
        status, error, report = _run(conf, slot, task, train_kwargs)
        row = dict(row, status=status, error=error, final_loss=None,
                   final_metric=None, metric_name=task.metric_name, losses=[])
        if report is not None:
            row.update(final_loss=report.final_loss,
                       final_metric=report.final_metric,
                       losses=list(report.losses))
        return row

    # Each cell runs in its own copy of this thread's context, so a worker
    # thread keeps main's exact tier instead of starting on the default.
    with ThreadPoolExecutor(max_workers=conf["threads"]) as pool:
        futures = [pool.submit(contextvars.copy_context().run, run_cell, cell)
                   for cell in cells]
        rows = [future.result() for future in futures]

    out = _out_dir(conf)
    cell_dir = out / "cells"
    cell_dir.mkdir(exist_ok=True)
    for row in rows:
        cell_payload = _stanza("sweep", merged)
        cell_payload["cell"] = row
        _write_json(cell_dir / f"{row['name']}.json", cell_payload)
    summary_rows = []
    for row in rows:
        summary_rows.append([
            row["name"], row["c_mid"], row["k_encoder"], row["k_reassembly"],
            row["normalizer"], "yes" if row["diagonal"] else "no",
            row["status"],
            "" if row["final_loss"] is None else repr(row["final_loss"]),
            "" if row["final_metric"] is None else repr(row["final_metric"]),
        ])
    _write_csv(out / "summary.csv",
               ["cell", "c_mid", "k_encoder", "k_reassembly", "normalizer",
                "diagonal", "status", "final_loss", "final_metric"],
               summary_rows)
    payload = _stanza("sweep", merged)
    payload["cells"] = [{k: v for k, v in row.items() if k != "losses"}
                        for row in rows]
    _write_json(out / "sweep.json", payload)
    for row in rows:
        metric = ("" if row["final_metric"] is None
                  else f" {row['metric_name']}={row['final_metric']:.4f}")
        print(f"{row['name']}: {row['status']}{metric}")
    print(f"summary -> {out / 'summary.csv'}")
    return 0 if any(row["status"] == "ok" for row in rows) else 1


# ---------------------------------------------------------------------------
# parser assembly


def _add_flags(sub: argparse.ArgumentParser, defaults: dict) -> None:
    keys = [k for k in defaults if k not in _COMMON_KEYS]
    for key in keys + ["config", *_COMMON_KEYS]:
        spec = dict(_FLAGS[key])
        if defaults.get(key) is not None:
            spec["help"] += f" (default {defaults[key]})"
        sub.add_argument("--" + key.replace("_", "-"), dest=key, **spec)


_COMMANDS = (
    ("gradcheck", "compare analytic gradients to finite differences",
     _GRADCHECK_DEFAULTS, _cmd_gradcheck),
    ("bench", "time operators and emit CSV + JSON", _BENCH_DEFAULTS,
     _cmd_bench),
    ("train", "train one mini net on a toy task", _TRAIN_DEFAULTS, _cmd_train),
    ("sweep", "grid-train the content-aware operator settings",
     _SWEEP_DEFAULTS, _cmd_sweep),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carafe",
        description="Content-aware reassembly operators: checks, benchmarks, "
                    "toy training, ablation sweeps.")
    parser.add_argument("--version", action="version",
                        version=f"carafe {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, defaults, func in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        _add_flags(sub, defaults)
        sub.set_defaults(func=func)
    return parser


@exact_tier()
def main(argv=None) -> int:
    """Run one subcommand; every report it writes comes from the exact tier."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
