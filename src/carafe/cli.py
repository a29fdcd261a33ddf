"""Command-line entry point: gradcheck, bench, train, and sweep subcommands.

Configuration precedence is defaults < JSON config file (--config) < explicit
flags. Every run writes a reproducibility stanza (schema, tool, version,
command, seed, full merged config) into its JSON report, and JSON reports
never contain wall-clock values — timings live only in bench CSV columns, so
re-running any (config, seed) pair reproduces the JSON byte for byte.

Exit codes: 0 success, 1 check/experiment failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import ALL_KINDS, make_resample_op, resample_forward
from .demo import (ARCHITECTURES, TASK_KINDS, SlotSpec, ToyTask, build_net,
                   train)
from .errors import CarafeError, TrainingDiverged
from .gradcheck import check_op, registered_ops
from .reassembly import NORMALIZERS, CarafeConfig, carafe_forward, carafe_params
from .tensor import Tensor

_DTYPES = {"single": np.float32, "double": np.float64}

_SLOT_KINDS = ("carafe",) + ALL_KINDS

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
    "operator": dict(choices=_SLOT_KINDS,
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
    "compressor_norm": dict(choices=("on", "off", "default"),
                            help="compressor norm; 'default' follows the "
                                 "direction"),
    "c_mid_grid": dict(help="comma list of compressed-channel counts"),
    "kernel_grid": dict(help="comma list of k_enc:k_re pairs, e.g. 1:3,3:5,5:7"),
    "normalizer_grid": dict(help="comma list drawn from "
                                 + ",".join(NORMALIZERS)),
    "config": dict(help="JSON config file; flags override it"),
    "seed": dict(type=int, help="base RNG seed"),
    "threads": dict(type=int,
                    help="worker threads (default: $CARAFE_THREADS or 1)"),
    "out": dict(help="output directory for reports"),
}
# Every subcommand ends with --config and then these flags.
_COMMON_KEYS = ("seed", "threads", "out")


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


def _resolve_threads(merged: dict) -> int:
    value = merged.get("threads")
    if value is None:
        value = os.environ.get("CARAFE_THREADS", "1")
    try:
        threads = int(value)
    except (TypeError, ValueError):
        raise SystemExit(f"carafe: error: thread count {value!r} is not an integer")
    return max(1, threads)


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


def _out_dir(merged: dict) -> Path:
    out = Path(merged["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_shape(parser, text: str) -> tuple:
    parts = text.replace("x", ",").split(",")
    try:
        shape = tuple(int(p) for p in parts)
    except ValueError:
        parser.error(f"bad shape {text!r}; expected N,C,H,W")
    if len(shape) != 4 or any(s < 1 for s in shape):
        parser.error(f"bad shape {text!r}; expected four positive dims")
    return shape


# ---------------------------------------------------------------------------
# gradcheck


def _cmd_gradcheck(parser, args) -> int:
    merged = _merge_config(parser, args, _GRADCHECK_DEFAULTS)
    merged["threads"] = _resolve_threads(merged)
    registry = registered_ops()
    if merged["ops"] == "all":
        names = list(registry)
    else:
        names = [s.strip() for s in str(merged["ops"]).split(",") if s.strip()]
        unknown = [n for n in names if n not in registry]
        if unknown:
            parser.error(
                f"unknown op name(s): {', '.join(unknown)}; "
                f"registered ops: {', '.join(registry)}")
    if not names:
        parser.error("empty op list")
    tol = float(merged["tol"])
    eps = float(merged["eps"])
    if eps <= 0:
        parser.error(f"eps must be > 0, got {eps}")
    results = [check_op(name, seed=int(merged["seed"]), tol=tol, eps=eps)
               for name in names]
    payload = _stanza("gradcheck", merged)
    payload["results"] = [r.to_payload() for r in results]
    payload["passed"] = all(r.passed for r in results)
    out = _out_dir(merged)
    _write_json(out / "gradcheck.json", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------
# bench


def _bench_case(name: str, shape: tuple, sigma: int, seed: int, dtype):
    """Build (callable, direction) for one roster entry."""
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, _BENCH_OP_NAMES.index(name))))
    x = Tensor(rng.standard_normal(shape).astype(dtype))
    if name in ("carafe_down", "carafe_up"):
        direction = name.split("_")[1]
        cfg = CarafeConfig(direction=direction, sigma=sigma)
        params = carafe_params(shape[1], cfg, rng, dtype)
        return lambda: carafe_forward(x, params, cfg)[0], direction
    if name in ("spatial_attention_down", "spatial_attention_up"):
        direction = name.rsplit("_", 1)[1]
        op = make_resample_op("spatial_attention", sigma, channels=shape[1],
                              rng=rng, dtype=dtype, direction=direction)
    else:
        op = make_resample_op(name, sigma, channels=shape[1], rng=rng,
                              dtype=dtype)
    return lambda: resample_forward(op, x)[0], op.direction


def _cmd_bench(parser, args) -> int:
    merged = _merge_config(parser, args, _BENCH_DEFAULTS)
    merged["threads"] = _resolve_threads(merged)
    names = [s.strip() for s in str(merged["ops"]).split(",") if s.strip()]
    unknown = [n for n in names if n not in _BENCH_OP_NAMES]
    if unknown:
        parser.error(f"unknown bench op(s): {', '.join(unknown)}; "
                     f"available: {', '.join(_BENCH_OP_NAMES)}")
    if not names:
        parser.error("empty bench roster")
    shape = _parse_shape(parser, str(merged["shape"]))
    sigma = int(merged["sigma"])
    reps = int(merged["reps"])
    warmup = int(merged["warmup"])
    if reps < 1 or warmup < 1:
        parser.error("reps and warmup must both be >= 1")
    if sigma < 1:
        parser.error(f"sigma must be >= 1, got {sigma}")
    if shape[2] % sigma or shape[3] % sigma:
        parser.error(f"bench shape {shape} must be divisible by sigma {sigma}")
    dtype = _DTYPES[merged["dtype"]]
    seed = int(merged["seed"])
    shape_txt = "x".join(str(s) for s in shape)

    csv_rows = []
    json_rows = []
    for name in names:
        fn, direction = _bench_case(name, shape, sigma, seed, dtype)
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

    out = _out_dir(merged)
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


def _tri_state(parser, value) -> bool | None:
    if isinstance(value, bool) or value is None:
        return value
    if value == "on":
        return True
    if value == "off":
        return False
    if value == "default":
        return None
    parser.error(f"compressor_norm must be on/off/default, got {value!r}")


def _arch_for(parser, merged: dict) -> str:
    task = merged["task"]
    arch = merged["arch"]
    if arch is None:
        arch = "upsampler" if task == "super_res" else "bottleneck"
    if task == "super_res" and arch != "upsampler":
        parser.error("super_res needs arch=upsampler (output is sigma x input)")
    if task != "super_res" and arch == "upsampler":
        parser.error(f"arch=upsampler changes spatial size; task {task} "
                     "needs bottleneck or fpn")
    return arch


def _build_for_run(merged: dict, slot: SlotSpec, arch: str, seed: int, dtype):
    ss = np.random.SeedSequence(seed)
    shared_ss, slot_ss = ss.spawn(2)
    return build_net(arch, slot, int(merged["channels"]), int(merged["sigma"]),
                     np.random.default_rng(shared_ss),
                     np.random.default_rng(slot_ss), dtype)


def _cmd_train(parser, args) -> int:
    merged = _merge_config(parser, args, _TRAIN_DEFAULTS)
    merged["threads"] = _resolve_threads(merged)
    if merged["task"] not in TASK_KINDS:
        parser.error(f"task must be one of {TASK_KINDS}")
    arch = _arch_for(parser, merged)
    merged["arch"] = arch
    if merged["operator"] not in _SLOT_KINDS:
        parser.error(f"operator must be one of {_SLOT_KINDS}")
    if merged["normalizer"] not in NORMALIZERS:
        parser.error(f"normalizer must be one of {NORMALIZERS}")
    compressor_norm = _tri_state(parser, merged["compressor_norm"])
    dtype = _DTYPES[merged["dtype"]]
    seed = int(merged["seed"])
    slot = SlotSpec(kind=merged["operator"],
                    k_encoder=int(merged["k_encoder"]),
                    k_reassembly=int(merged["k_reassembly"]),
                    c_mid=None if merged["c_mid"] is None else int(merged["c_mid"]),
                    normalizer=merged["normalizer"],
                    compressor_norm=compressor_norm)
    try:
        task = ToyTask(kind=merged["task"], size=int(merged["size"]),
                       sigma=int(merged["sigma"]), seed=seed)
        net = _build_for_run(merged, slot, arch, seed, dtype)
    except (CarafeError, ValueError) as exc:
        parser.error(str(exc))

    out = _out_dir(merged)
    payload = _stanza("train", merged)
    try:
        report = train(net, task, epochs=int(merged["epochs"]),
                       lr=float(merged["lr"]),
                       momentum=float(merged["momentum"]),
                       weight_decay=float(merged["weight_decay"]), seed=seed,
                       train_count=int(merged["train_count"]),
                       eval_count=int(merged["eval_count"]), dtype=dtype)
    except TrainingDiverged as exc:
        payload["status"] = "diverged"
        payload["error"] = str(exc)
        _write_json(out / "report.json", payload)
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    payload["status"] = "ok"
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


def _parse_kernel_grid(parser, text: str) -> list:
    pairs = []
    for chunk in str(text).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            parser.error(f"kernel grid entry {chunk!r} must be k_enc:k_re")
        try:
            k_enc, k_re = int(parts[0]), int(parts[1])
        except ValueError:
            parser.error(f"kernel grid entry {chunk!r} must be two integers")
        if k_enc < 1 or k_re < 1 or k_enc % 2 == 0 or k_re % 2 == 0:
            parser.error(f"kernel sizes must be odd and positive, got {chunk!r}")
        pairs.append((k_enc, k_re))
    if not pairs:
        parser.error("empty kernel grid")
    return pairs


def _parse_int_grid(parser, text: str, label: str) -> list:
    try:
        values = [int(s) for s in str(text).split(",") if s.strip()]
    except ValueError:
        parser.error(f"{label} must be comma-separated integers, got {text!r}")
    if not values or any(v < 1 for v in values):
        parser.error(f"{label} must be positive integers, got {text!r}")
    return values


def _cmd_sweep(parser, args) -> int:
    merged = _merge_config(parser, args, _SWEEP_DEFAULTS)
    threads = _resolve_threads(merged)
    merged["threads"] = threads
    if merged["task"] not in TASK_KINDS:
        parser.error(f"task must be one of {TASK_KINDS}")
    arch = _arch_for(parser, merged)
    merged["arch"] = arch
    c_mids = _parse_int_grid(parser, merged["c_mid_grid"], "c_mid_grid")
    kernel_pairs = _parse_kernel_grid(parser, merged["kernel_grid"])
    normalizers = [s.strip() for s in str(merged["normalizer_grid"]).split(",")
                   if s.strip()]
    bad = [n for n in normalizers if n not in NORMALIZERS]
    if bad or not normalizers:
        parser.error(f"normalizer_grid entries must be in {NORMALIZERS}")
    dtype = _DTYPES[merged["dtype"]]
    seed = int(merged["seed"])
    task = ToyTask(kind=merged["task"], size=int(merged["size"]),
                   sigma=int(merged["sigma"]), seed=seed)

    cells = []
    for idx, (c_mid, (k_enc, k_re), norm) in enumerate(
            product(c_mids, kernel_pairs, normalizers)):
        cells.append({
            "index": idx,
            "name": f"cell{idx:03d}_cmid{c_mid}_enc{k_enc}_re{k_re}_{norm}",
            "c_mid": c_mid, "k_encoder": k_enc, "k_reassembly": k_re,
            "normalizer": norm, "diagonal": k_enc == k_re - 2,
        })

    def run_cell(cell: dict) -> dict:
        # Every cell reuses the same base seed so cells differ only in the
        # swept parameters; each builds its own rngs/net/data (fully isolated).
        slot = SlotSpec(kind="carafe", k_encoder=cell["k_encoder"],
                        k_reassembly=cell["k_reassembly"], c_mid=cell["c_mid"],
                        normalizer=cell["normalizer"])
        row = dict(cell)
        try:
            net = _build_for_run(merged, slot, arch, seed, dtype)
            report = train(net, task, epochs=int(merged["epochs"]),
                           lr=float(merged["lr"]),
                           momentum=float(merged["momentum"]),
                           weight_decay=float(merged["weight_decay"]),
                           seed=seed, train_count=int(merged["train_count"]),
                           eval_count=int(merged["eval_count"]), dtype=dtype)
        except (TrainingDiverged, CarafeError) as exc:
            row.update(status="diverged", error=str(exc), final_loss=None,
                       final_metric=None, metric_name=task.metric_name,
                       losses=[])
            return row
        row.update(status="ok", error=None, final_loss=report.final_loss,
                   final_metric=report.final_metric,
                   metric_name=report.metric_name,
                   losses=list(report.losses))
        return row

    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(run_cell, cells))

    out = _out_dir(merged)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":
    sys.exit(main())
