#!/usr/bin/env python3
"""Seed sensitivity of one training trend, acceptance criterion 7 or 8, on both conv tiers.

up is criterion 7 (super_res, upsampler net, PSNR, carafe against
nearest_plus_conv), down is criterion 8 (seg2, bottleneck net, IoU, carafe
against strided_conv), each with the budget scripts/compare_operators.py
gives it: 8 channels, 16 training and 8 held-out samples, task seed equal to
the training seed. Every seed trains both slots once on the exact tier and
once on the fast tier.

Per tier it prints the paired per-seed difference carafe - baseline, its
mean with a paired-bootstrap percentile interval (Efron and Tibshirani,
1993), the seeds carafe wins, the runs that diverged (counted, never
dropped: a seed with a diverged run has no difference) and the median wall
time of one training run. Last, it says whether the fast tier's mean
difference lies inside the exact tier's interval, the condition for moving
the criterion to the fast tier. It is not a gate; it reports what it finds.

    python3 scripts/seed_sensitivity.py down --seeds 0-19 --json down.json
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from carafe import nn
from carafe.demo import SlotSpec, ToyTask, seeded_net, train
from carafe.errors import TrainingDiverged
from compare_operators import EXPERIMENTS

TIERS = ("exact", "fast")
CONFIDENCE = 0.95
RESAMPLES = 10_000


def _seeds(text: str) -> list[int]:
    """'0-3,7' -> [0, 1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def _train(exp: dict, spec: SlotSpec, seed: int, epochs: int, tier: str):
    """(final metric, or None if the run diverged; wall seconds)."""
    task = ToyTask(exp["task"], size=16, sigma=2, seed=seed)
    start = time.perf_counter()
    with nn.exact_tier(tier == "exact"):
        net = seeded_net(exp["arch"], spec, 8, task.sigma, seed)
        try:
            metric = train(net, task, epochs, exp["lr"], seed=seed,
                           train_count=16, eval_count=8).final_metric
        except TrainingDiverged:
            metric = None
    return metric, time.perf_counter() - start


def _summary(rows: list, tier: str, rng) -> dict:
    """Paired statistics of one tier over every seed's row."""
    diffs = [r[tier]["diff"] for r in rows if r[tier]["diff"] is not None]
    out = {"pairs": len(diffs),
           "divergences": {slot: sum(r[tier][slot] is None for r in rows)
                           for slot in ("carafe", "baseline")},
           "wins": sum(d > 0 for d in diffs),
           "run_s_median": statistics.median(
               s for r in rows for s in r[tier]["run_s"])}
    if diffs:
        d = np.asarray(diffs)
        means = d[rng.integers(0, d.size, (RESAMPLES, d.size))].mean(axis=1)
        tail = (1 - CONFIDENCE) / 2
        out["mean_diff"] = float(d.mean())
        out["ci"] = [float(v) for v in np.quantile(means, [tail, 1 - tail])]
    return out


def _fmt(value, digits: int) -> str:
    return "diverged" if value is None else f"{value:.{digits}f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("direction", choices=tuple(EXPERIMENTS))
    ap.add_argument("--seeds", default="0-19",
                    help="training seeds, a comma list of n or first-last")
    ap.add_argument("--epochs", type=int,
                    help="default " + ", ".join(
                        f"{exp['epochs']} {d}" for d, exp in EXPERIMENTS.items()))
    ap.add_argument("--json", help="also write every number to this file")
    args = ap.parse_args(argv)

    exp = EXPERIMENTS[args.direction]
    epochs = exp["epochs"] if args.epochs is None else args.epochs
    baseline = exp["baselines"][0]
    slots = {"carafe": SlotSpec("carafe", k_encoder=3, k_reassembly=3, c_mid=8,
                                compressor_norm=True),
             "baseline": SlotSpec(baseline)}
    seeds = _seeds(args.seeds)
    d = exp["digits"] + 2
    print(f"{exp['task']} carafe vs {baseline}: epochs={epochs} lr={exp['lr']} "
          f"seeds={args.seeds}; {exp['metric']} per tier, diff = carafe - "
          f"{baseline}")
    print(f"{'seed':>4}" + "".join(f" {t + ' ' + c:>16}" for t in TIERS
                                   for c in ("carafe", "base", "diff")))
    rows = []
    for seed in seeds:
        row = {"seed": seed}
        for tier in TIERS:
            cell = {"run_s": []}
            for slot, spec in slots.items():
                cell[slot], run_s = _train(exp, spec, seed, epochs, tier)
                cell["run_s"].append(run_s)
            pair = (cell["carafe"], cell["baseline"])
            cell["diff"] = None if None in pair else pair[0] - pair[1]
            row[tier] = cell
        rows.append(row)
        print(f"{seed:>4}" + "".join(f" {_fmt(row[t][c], d):>16}" for t in TIERS
                                     for c in ("carafe", "baseline", "diff")),
              flush=True)

    # Both tiers draw the same resamples, so equal differences give equal
    # intervals.
    result = {tier: _summary(rows, tier, np.random.default_rng(0))
              for tier in TIERS}
    for tier, s in result.items():
        stats = (f"mean diff {s['mean_diff']:+.{d}f}, {CONFIDENCE:.0%} CI "
                 f"[{s['ci'][0]:+.{d}f}, {s['ci'][1]:+.{d}f}]"
                 if s["pairs"] else "no pairs")
        print(f"{tier}: {stats}; carafe wins {s['wins']}/{s['pairs']}; "
              f"diverged {s['divergences']}; "
              f"{s['run_s_median']:.2f} s per run (median)")
    exact, fast = result["exact"], result["fast"]
    agree = (exact["pairs"] > 0 and fast["pairs"] > 0
             and exact["ci"][0] <= fast["mean_diff"] <= exact["ci"][1])
    gaps = [abs(r["fast"][s] - r["exact"][s]) for r in rows
            for s in ("carafe", "baseline")
            if r["fast"][s] is not None and r["exact"][s] is not None]
    print(f"fast mean diff inside the exact CI: {'yes' if agree else 'no'}; "
          f"max |fast - exact| per run {max(gaps, default=0.0):.3e}; "
          f"fast/exact time per run {fast['run_s_median'] / exact['run_s_median']:.2f}")
    if args.json:
        payload = {"direction": args.direction, "task": exp["task"],
                   "arch": exp["arch"], "baseline": baseline, "epochs": epochs,
                   "lr": exp["lr"], "seeds": seeds, "confidence": CONFIDENCE,
                   "resamples": RESAMPLES, "nproc": os.cpu_count(),
                   "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                   "rows": rows, "summary": result, "fast_inside_exact_ci": agree,
                   "max_abs_fast_minus_exact": max(gaps, default=0.0)}
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
