#!/usr/bin/env python3
"""Train a resampling roster in one net slot and tabulate the held-out metric.

up: the upsampling roster on the toy super-resolution task, upsampler net,
PSNR. down: the downsampling roster on the toy two-class segmentation task,
bottleneck net (the slot downsamples, a fixed nearest upsampler brings the
features back up, a conv classifies each pixel), IoU.

Every operator fills the same slot in an otherwise identical net: same trunk
weights (seeded via one spawned stream), same data, same optimizer budget.
The content-aware reassembler is compared against fixed and learned
baselines; the table reports the metric per seed plus mean/sd. The table is
an artifact, so every run behind it is on the exact tier.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from carafe import nn
from carafe.demo import SlotSpec, ToyTask, compare_operators

# The two experiments. digits: decimals of each per-seed value; the mean
# and sd get one more.
EXPERIMENTS = {
    "up": dict(task="super_res", arch="upsampler", epochs=1800, lr=0.15,
               baselines=("nearest_plus_conv", "bilinear_plus_conv",
                          "transposed_conv"),
               metric="PSNR", digits=2),
    "down": dict(task="seg2", arch="bottleneck", epochs=120, lr=0.05,
                 baselines=("strided_conv", "max_pool", "avg_pool"),
                 metric="IoU", digits=3),
}


@nn.exact_tier()
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("direction", choices=tuple(EXPERIMENTS))
    ap.add_argument("--size", type=int, default=16,
                    help="image side (the high-res side for up)")
    ap.add_argument("--sigma", type=int, default=2, help="resampling ratio")
    ap.add_argument("--channels", type=int, default=8, help="trunk width")
    for key, type_ in (("epochs", int), ("lr", float)):
        ap.add_argument("--" + key, type=type_, help="default " + ", ".join(
            f"{exp[key]} {d}" for d, exp in EXPERIMENTS.items()))
    ap.add_argument("--seeds", type=str, default="0,1,2",
                    help="comma-separated training seeds")
    ap.add_argument("--train-count", type=int, default=16)
    ap.add_argument("--eval-count", type=int, default=8)
    ap.add_argument("--k-reassembly", type=int, default=3)
    ap.add_argument("--c-mid", type=int, default=8)
    args = ap.parse_args(argv)

    exp = EXPERIMENTS[args.direction]
    epochs = exp["epochs"] if args.epochs is None else args.epochs
    lr = exp["lr"] if args.lr is None else args.lr
    seeds = tuple(int(s) for s in args.seeds.split(","))
    task = ToyTask(exp["task"], size=args.size, sigma=args.sigma)
    # compressor_norm=True is the down direction's default anyway.
    roster = [SlotSpec("carafe", k_encoder=3, k_reassembly=args.k_reassembly,
                       c_mid=args.c_mid, compressor_norm=True)]
    roster += [SlotSpec(kind) for kind in exp["baselines"]]
    print(f"{exp['task']} size={args.size} sigma={args.sigma} "
          f"epochs={epochs} lr={lr} seeds={seeds}")
    rows = compare_operators(task, roster, seeds=seeds, arch=exp["arch"],
                             channels=args.channels, epochs=epochs, lr=lr,
                             train_count=args.train_count,
                             eval_count=args.eval_count)
    d = exp["digits"]
    print(f"{'operator':<20} {'mean':>8} {'sd':>7}  per-seed {exp['metric']}")
    for row in rows:
        per = "  ".join(f"{v:6.{d}f}" for v in row.per_seed)
        print(f"{row.operator:<20} {row.mean:8.{d + 1}f} {row.sd:7.{d + 1}f}  {per}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
