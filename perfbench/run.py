"""Benchmark of the carafe package: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. One caller runs steps back to back for S
seconds (the step under way when time is up is finished and counted) and
checks every output. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
measures S/2 seconds untraced and S/2 seconds with every public function of
the package wrapped, and reports per-layer self times, call counts, operator
stage times, computed work and the tracing overhead. Lines before the last
describe the machine and repeat every metric with its unit.

BLAS thread counts are pinned to the number of usable cores through this
process's own environment before numpy loads. See WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS, STAGES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

END_TO_END = (
    ("step_ms.p50", "ms"), ("step_ms.p90", "ms"), ("items_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mib", "MiB"),
)

SELF_MS_SPANS = (
    "nn.conv2d_forward", "nn.conv2d_backward", "nn.softmax_group",
    "nn.softmax_group_backward", "nn.affine_norm", "nn.affine_norm_backward",
    "nn.pixel_shuffle", "nn.pixel_unshuffle", "nn.relu", "nn.relu_backward",
    "nn.sgd_step", "reassembly.reassemble", "reassembly.reassemble_backward",
    "reassembly.carafe_forward", "reassembly.carafe_backward",
    "baselines.resample_forward", "baselines.resample_backward",
    "demo.net_glue", "gradcheck.check_op", "gradcheck.check_problem",
    "gradcheck.finite_diff_array", "tensor.Tensor",
)
CALLS_SPANS = ("nn.conv2d_forward", "nn.conv2d_backward",
               "reassembly.reassemble", "reassembly.reassemble_backward",
               "tensor.Tensor")
COMPUTED = ("nn.conv2d_forward", "nn.conv2d_backward", "reassembly.reassemble",
            "reassembly.reassemble_backward") + tuple(
    f"stage.{s}.{d}" for s in ("compressor", "encoder", "reassembly")
    for d in ("fwd", "bwd"))

PER_LAYER = (
    tuple((f"{s}.self_ms", "ms") for s in SELF_MS_SPANS)
    + (("demo.loss.self_ms", "ms"),)
    + tuple((f"{s}.calls", "count") for s in CALLS_SPANS)
    + tuple((f"{layer}.self_ms", "ms") for layer in LAYERS)
    + tuple((f"reassembly.stage.{s}.{d}_ms", "ms") for s in STAGES
            for d in ("fwd", "bwd"))
    + (("gradcheck.loss_evals", "count"),)
    + tuple((f"computed.{c}.{kind}", unit) for c in COMPUTED
            for kind, unit in (("macs", "MAC"), ("bytes", "B")))
    + (("trace.overhead_ms", "ms"), ("trace.uncovered_ms", "ms"))
)
LOSS_SPANS = ("demo.mse_loss", "demo.bce_logits_loss")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train_toy", "carafe_paper", "gradcheck_registry"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _pin_threads() -> dict:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return {"nproc": nproc, **{var: os.environ[var] for var in THREAD_VARS}}


def _cache_sizes() -> dict:
    """L2/L3 sizes of cpu0 as sysfs reports them (read-only, no side effects)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine(threads: dict) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": threads["nproc"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {v: threads[v] for v in THREAD_VARS},
        "cache": _cache_sizes(),
        "commit": _git_commit(),
    }


def _setup_seconds(workload: str, seed: int) -> float:
    """Median wall time for a fresh interpreter to import carafe and build the
    workload's state: what a user pays before the first step."""
    code = (f"import sys; sys.path[:0] = {[str(SRC), str(HERE)]!r}; import workloads; "
            f"workloads.WORKLOADS[{workload!r}].setup({seed})")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Loop:
    """Runs whole steps until the time is up; collects per-step data."""

    def __init__(self):
        self.samples_ns = []
        self.uncovered_ns = 0
        self.items = 0
        self.attempted = 0
        self.failed = 0

    def step(self, run, verify, items, tracer=None) -> None:
        top0 = tracer.top_ns if tracer is not None else 0
        t0 = time.perf_counter_ns()
        try:
            result = run()
        except Exception:  # a failing step is counted, and the loop goes on
            dt = time.perf_counter_ns() - t0
            traceback.print_exc()
            ok = False
        else:
            dt = time.perf_counter_ns() - t0
            try:
                ok = bool(verify(result))
            except Exception:
                traceback.print_exc()
                ok = False
        self.samples_ns.append(dt)
        if tracer is not None:
            self.uncovered_ns += dt - (tracer.top_ns - top0)
        self.attempted += 1
        if ok:
            self.items += items
        else:
            self.failed += 1

    def run_for(self, workload, state, seconds: float, tracer=None) -> "Loop":
        run, verify, items = workload.step(state)
        deadline = time.perf_counter() + seconds
        while True:
            self.step(run, verify, items, tracer)
            if time.perf_counter() >= deadline:
                return self

    def p50_ms(self) -> float:
        return statistics.median(self.samples_ns) / 1e6

    def p90_ms(self) -> float:
        if len(self.samples_ns) < 2:
            return max(self.samples_ns) / 1e6
        return statistics.quantiles(self.samples_ns, n=10)[-1] / 1e6


def _per_layer(tracer, traced: Loop, untraced: Loop) -> dict:
    n = len(traced.samples_ns)
    stats = tracer.stats

    def ms(ns):
        return ns / n / 1e6

    m = {f"{s}.self_ms": ms(stats[s][2]) for s in SELF_MS_SPANS}
    m["demo.loss.self_ms"] = ms(sum(stats[s][2] for s in LOSS_SPANS))
    m.update({f"{s}.calls": stats[s][0] / n for s in CALLS_SPANS})
    m.update({f"{layer}.self_ms": ms(tracer.layer_self_ns(layer))
              for layer in LAYERS})
    m.update({f"reassembly.stage.{s}.{d}_ms": ms(tracer.stage_ns[(s, d)])
              for s in STAGES for d in ("fwd", "bwd")})
    m["gradcheck.loss_evals"] = tracer.counters["gradcheck.loss_evals"] / n
    m.update({f"computed.{c}.{kind}": tracer.counters[f"computed.{c}.{kind}"] / n
              for c in COMPUTED for kind in ("macs", "bytes")})
    m["trace.overhead_ms"] = traced.p50_ms() - untraced.p50_ms()
    m["trace.uncovered_ms"] = ms(traced.uncovered_ns)
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "carafe" / "__init__.py").is_file():
        print(f"perfbench: no carafe sources under {SRC}", file=sys.stderr)
        return 2
    threads = _pin_threads()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import carafe
    if Path(carafe.__file__).resolve().parent != SRC / "carafe":
        print(f"perfbench: imported carafe from {carafe.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    print(json.dumps({"machine": _machine(threads)}, sort_keys=True))
    wl = WORKLOADS[args.workload]

    if not args.trace:
        setup_s = _setup_seconds(args.workload, args.seed)
    state = wl.setup(args.seed)
    # The pinned check runs the same code at the same shapes as the steps,
    # so it is also the warm-up.
    attempted, failed = wl.pinned_check()

    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = Loop().run_for(wl, state, seconds)
    loops = [untraced]
    if args.trace:
        tracer = Tracer()
        wl.register(state, tracer)
        with tracer:
            traced = Loop().run_for(wl, state, seconds, tracer)
        loops.append(traced)
        metrics = _per_layer(tracer, traced, untraced)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "step_ms.p50": untraced.p50_ms(),
            "step_ms.p90": untraced.p90_ms(),
            "items_per_s": untraced.items / (sum(untraced.samples_ns) / 1e9),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    attempted += sum(loop.attempted for loop in loops)
    failed += sum(loop.failed for loop in loops)

    print(f"{args.workload}  steps = {len(untraced.samples_ns)} untraced"
          + (f", {len(traced.samples_ns)} traced" if args.trace else "")
          + f"; items are {wl.item_unit}")
    print(f"{args.workload}  fail_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} steps)")
    for key, value in wl.report(state).items():
        print(f"{args.workload}  {key} = {value}")
    for name, value in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
