"""Gates of the fast tier: convolution by one BLAS product per tap, and
reassembly by one batched product per block of unfolded windows (with the
up direction's phases contracted in one einsum per offset).

The fast tier sums in BLAS order, so it is held to a tolerance against the
exact tier rather than to bits: per result array, max|fast - exact| /
max|exact|. The tolerances are pinned from measurement. Over 200 cases of
the criterion-6 generator and every conv shape of the train_toy and
carafe_paper benchmark workloads, the worst conv ratio was 3.0e-15 in fp64
and 3.0e-6 in fp32 (both on a bias or weight gradient); the bounds below
leave about 3x of headroom. The reassembly bounds are set the same way,
from the measurement quoted at REASSEMBLY_TOL.

The last section gates where each tier runs. Every artifact writer reaches
each conv and each reassembly on the exact tier: every CLI command (sweep
worker threads included), scripts/compare_operators.py and
scripts/exact_digest.py. check_op and compare_operators run on their
caller's tier, and scripts/seed_sensitivity.py on the tier it names.
"""

import argparse
import ctypes
import importlib.util
import json
import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from carafe import cli, gradcheck, nn
from carafe.demo import SlotSpec, ToyTask, compare_operators, seeded_net, train
from carafe.reassembly import (CarafeConfig, KernelField, reassemble,
                               reassemble_backward)
from carafe.tensor import Tensor

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

FAST_TOL = {np.float64: 1e-14, np.float32: 1e-5}

# (x shape, c_out, k, stride, pad) of every conv in one step of the
# train_toy and carafe_paper workloads.
WORKLOAD_CONVS = (
    ((16, 1, 16, 16), 8, 3, 1, 1), ((16, 8, 16, 16), 8, 3, 1, 1),
    ((16, 8, 16, 16), 1, 3, 1, 1), ((16, 8, 16, 16), 8, 1, 1, 0),
    ((16, 8, 8, 8), 36, 3, 1, 1), ((16, 8, 16, 16), 9, 3, 2, 1),
    ((16, 8, 16, 16), 8, 3, 2, 1), ((1, 64, 16, 16), 100, 3, 1, 1),
    ((1, 256, 16, 16), 64, 1, 1, 0), ((1, 16, 32, 32), 25, 3, 2, 1),
    ((1, 256, 32, 32), 16, 1, 1, 0),
)


def _criterion_6_conv(rng):
    """The conv draws of criterion 6's case generator."""
    n = int(rng.integers(1, 3))
    c_in = int(rng.integers(1, 4))
    c_out = int(rng.integers(1, 4))
    k = int(rng.choice([1, 3]))
    stride = int(rng.integers(1, 3))
    h = int(rng.integers(k, k + 4))
    w = int(rng.integers(k, k + 4))
    return (n, c_in, h, w), c_out, k, stride, k // 2


def _conv_results(rng, x_shape, c_out, k, stride, pad, dtype):
    """A function returning every result array of conv and transposed conv,
    forward and backward with parameter grads, on fixed random inputs."""
    x = Tensor(rng.standard_normal(x_shape).astype(dtype))
    p = nn.conv_params(c_out, x_shape[1], k, rng, dtype)
    p.bias[:] = rng.standard_normal(c_out)
    gy = Tensor(rng.standard_normal(
        (x_shape[0], c_out, *nn.conv_output_hw(*x_shape[2:], k, stride, pad))
    ).astype(dtype))
    tp = nn.transposed_conv_params(x_shape[1], c_out, k, rng, dtype)
    tp.bias[:] = rng.standard_normal(c_out)
    t_pad = min(pad, k - 1)
    t_gy = Tensor(rng.standard_normal(
        (x_shape[0], c_out,
         *nn.transposed_conv_output_hw(*x_shape[2:], k, stride, t_pad))
    ).astype(dtype))

    def run():
        p.zero_grads()
        tp.zero_grads()
        return [nn.conv2d_forward(x, p, stride, pad).data,
                nn.conv2d_backward(gy, x, p, stride, pad).data,
                p.grad_weights.copy(), p.grad_bias.copy(),
                nn.transposed_conv_forward(x, tp, stride, t_pad).data,
                nn.transposed_conv_backward(t_gy, x, tp, stride, t_pad).data,
                tp.grad_weights.copy(), tp.grad_bias.copy()]

    return run


def _cases(dtype):
    rng = np.random.default_rng(106)
    for _ in range(50):
        yield _conv_results(rng, *_criterion_6_conv(rng), dtype)
    for case in WORKLOAD_CONVS:
        yield _conv_results(rng, *case, dtype)


def _worst_ratio(cases, dtype):
    """The largest max|fast - exact| / max|exact| over every result array."""
    worst = 0.0
    for run in cases:
        fast = run()
        with nn.exact_tier():
            exact = run()
        for a, b in zip(fast, exact, strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype == dtype
            scale = float(np.abs(b).max(initial=0.0))
            err = float(np.abs(a.astype(np.float64) - b).max(initial=0.0))
            worst = max(worst, err / scale if scale else err)
    return worst


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fast_tier_within_pinned_tolerance_of_exact(dtype):
    assert _worst_ratio(_cases(dtype), dtype) <= FAST_TOL[dtype]


def test_fast_tier_repeats_bit_for_bit():
    for run in _cases(np.float64):
        first, second = run(), run()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


# ---------------------------------------------------------------------------
# reassembly

# Measured over the cases below: 9.0e-16 in fp64 (on a kernel gradient) and
# 5.5e-7 in fp32 (on a source gradient); about 3x of headroom, as for the
# convolutions.
REASSEMBLY_TOL = {np.float64: 3e-15, np.float32: 2e-6}

# (x shape, direction, k) of every reassembly in one step of the train_toy
# and carafe_paper workloads, all at sigma 2.
WORKLOAD_REASSEMBLY = (
    ((16, 8, 8, 8), "up", 3), ((16, 8, 16, 16), "down", 3),
    ((1, 256, 16, 16), "up", 5), ((1, 256, 32, 32), "down", 5),
)
# k = 1 on a 1 x 1 map with C >= 8, where a channel contraction has nothing
# else to vectorize over and numpy's einsum changes its summation order.
ONE_BY_ONE = tuple(((n, c, 1, 1), d, 1, s) for n, c in ((1, 16), (2, 39))
                   for d in ("down", "up") for s in (1, 2))


def _reassembly_results(rng, x_shape, direction, k, sigma, dtype):
    """A function returning reassemble's output and both of
    reassemble_backward's gradients on fixed random inputs: signed kernel
    fields, and about a quarter of x and grad_y at +0.0 or -0.0."""
    cfg = CarafeConfig(direction, sigma, k_reassembly=k)
    n, c = x_shape[:2]
    h_out, w_out = cfg.output_hw(*x_shape[2:])

    def draw(shape):
        a = rng.standard_normal(shape)
        a[rng.random(shape) < 0.25] = 0.0
        return Tensor(np.copysign(a, rng.standard_normal(shape)).astype(dtype))

    x, gy = draw(x_shape), draw((n, c, h_out, w_out))
    kf = KernelField(Tensor(rng.standard_normal(
        (n, k * k, h_out, w_out)).astype(dtype)), k, True)

    def run():
        return [reassemble(x, kf, cfg).data,
                *(t.data for t in reassemble_backward(gy, x, kf, cfg))]

    return run


def _reassembly_cases(dtype):
    """Criterion 6's reassembly draws widened: both directions, k 1-7,
    sigma 1-3, C 1-12 and maps from 1 x 1 to 6 x 6; then the 1 x 1 cases and
    the workload shapes."""
    rng = np.random.default_rng(612)
    for case in range(200):
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 13)),
                 int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        yield _reassembly_results(rng, shape, ("down", "up")[case % 2],
                                  int(rng.choice([1, 3, 5, 7])),
                                  int(rng.integers(1, 4)), dtype)
    for shape, direction, k, sigma in ONE_BY_ONE:
        yield _reassembly_results(rng, shape, direction, k, sigma, dtype)
    for shape, direction, k in WORKLOAD_REASSEMBLY:
        yield _reassembly_results(rng, shape, direction, k, 2, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fast_reassembly_within_pinned_tolerance_of_exact(dtype):
    assert _worst_ratio(_reassembly_cases(dtype), dtype) <= REASSEMBLY_TOL[dtype]


def test_fast_reassembly_repeats_bit_for_bit():
    for run in _reassembly_cases(np.float64):
        first, second = run(), run()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


def test_fast_reassembly_returns_fresh_arrays_and_leaves_inputs_alone():
    # At carafe_paper's shapes, up then down, forward then backward: every
    # result is its own memory, no later call changes one, a second round
    # repeats the first bit for bit, and no input (the kernel field
    # included) is written.
    rng = np.random.default_rng(10)
    calls = []
    for x_shape, direction, k in WORKLOAD_REASSEMBLY[2:]:
        cfg = CarafeConfig(direction, 2, k_reassembly=k)
        h_out, w_out = cfg.output_hw(*x_shape[2:])
        logits = Tensor(rng.standard_normal((1, k * k, h_out, w_out)))
        calls.append((Tensor(rng.uniform(-1, 1, x_shape)),
                      KernelField(nn.softmax_group(logits, k * k), k, True),
                      Tensor(rng.uniform(-1, 1, (1, x_shape[1], h_out, w_out))),
                      cfg))
    inputs = [a.data for x, kf, gy, _ in calls for a in (x, kf.tensor, gy)]
    before = [a.tobytes() for a in inputs]

    def run():
        results, snapshots = [], []
        for x, kf, gy, cfg in calls:
            for out in ([reassemble(x, kf, cfg)],
                        reassemble_backward(gy, x, kf, cfg)):
                results += [t.data for t in out]
                snapshots += [t.data.tobytes() for t in out]
        return results, snapshots

    first, first_bytes = run()
    second, second_bytes = run()
    assert [a.tobytes() for a in first] == first_bytes
    assert second_bytes == first_bytes
    kept = first + second
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(kept) for b in kept[i + 1:])
    assert not any(np.shares_memory(a, b) for a in kept for b in inputs)
    assert [a.tobytes() for a in inputs] == before


def test_training_report_repeats_bit_for_bit_on_the_fast_tier():
    task = ToyTask("super_res", size=8, sigma=2, seed=3)

    def report():
        net = seeded_net("upsampler", SlotSpec("carafe", c_mid=4), 4, 2, 3,
                         np.float64)
        return json.dumps(train(net, task, 4, 0.05, 0.9, 1e-4, seed=3,
                                train_count=4, eval_count=2).to_payload(),
                          sort_keys=True)

    assert report() == report()


@contextmanager
def _recorded_tiers():
    """Patch nn._gemm_tier, which every conv and reassembly seam asks for its
    tier, to record (thread name, exact tier on, calling module) per seam
    reached. A module that took the decision by from-import, or not at all,
    records nothing."""
    seen = []
    gemm_tier = nn._gemm_tier

    def record(terms):
        seen.append((threading.current_thread().name, nn._EXACT.get(),
                     sys._getframe(1).f_globals["__name__"]))
        return gemm_tier(terms)

    nn._gemm_tier = record
    try:
        yield seen
    finally:
        nn._gemm_tier = gemm_tier


def _reaches_a_tier_seam(name):
    """Whether the registry problem runs a conv or reassembly seam."""
    with _recorded_tiers() as seen:
        gradcheck.REGISTRY[name](0).analytic()
    return bool(seen)


TIERED_OPS = [name for name in gradcheck.registered_ops()
              if _reaches_a_tier_seam(name)]


def test_conv_ops_cover_every_conv_kind():
    assert {"conv2d", "conv2d_strided", "transposed_conv", "carafe_up",
            "carafe_down", "strided_conv", "reassemble_up",
            "reassemble_down"} <= set(TIERED_OPS)


# The registry tests in test_gradcheck.py run every op on the default tier,
# the fast one; this runs the ones with a tier seam on the exact tier, so
# each tier's conv and reassembly backward keeps a finite-difference gate.
@pytest.mark.parametrize("name", TIERED_OPS)
def test_gradients_hold_on_the_fast_tier(name):
    with nn.exact_tier():
        report = gradcheck.check_op(name)
    assert report.passed, report.to_payload()


# ---------------------------------------------------------------------------
# where each tier runs: every entry point that writes an artifact reaches each
# conv on the exact tier, in whatever thread; the library follows its caller


def _load_script(name, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# One small run of every CLI command; test_cli_commands_are_all_here fails
# when a command is added without one.
CLI_RUNS = {
    "gradcheck": ["gradcheck", "--ops", "conv2d,transposed_conv,reassemble_up"],
    "bench": ["bench", "--ops", "carafe_up,transposed_conv,strided_conv",
              "--shape", "1,4,6,6", "--reps", "1"],
    "train": ["train", "--size", "8", "--epochs", "2", "--channels", "4",
              "--c-mid", "4"],
    "sweep": ["sweep", "--task", "seg2", "--size", "8", "--epochs", "2",
              "--channels", "4", "--c-mid-grid", "2,4",
              "--kernel-grid", "1:3,3:5", "--threads", "2"],
}


def test_cli_commands_are_all_here():
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    assert list(action.choices) == list(CLI_RUNS)


@pytest.mark.parametrize("command", list(CLI_RUNS))
def test_every_cli_command_runs_on_the_exact_tier(tmp_path, command):
    with _recorded_tiers() as seen:
        cli.main(CLI_RUNS[command] + ["--out", str(tmp_path)])
    assert all(exact for _, exact, _ in seen)
    # every run reaches both modules' seams, through nn._gemm_tier
    assert {module for _, _, module in seen} == {"carafe.nn", "carafe.reassembly"}
    if command == "sweep":
        # the cells ran in the pool's worker threads, not in this one
        assert {thread for thread, _, _ in seen} - {threading.current_thread().name}


@pytest.mark.parametrize("script", ["compare_operators", "exact_digest"])
def test_artifact_scripts_run_on_the_exact_tier(monkeypatch, script):
    runs = {
        "compare_operators": lambda module: module.main(
            ["down", "--size", "8", "--channels", "4", "--c-mid", "4",
             "--epochs", "1", "--seeds", "0", "--train-count", "2",
             "--eval-count", "2"]),
        "exact_digest": lambda module: module.digest(6, 0),
    }
    module = _load_script(script, monkeypatch)
    with _recorded_tiers() as seen:
        runs[script](module)
    assert seen and all(exact for _, exact, _ in seen)


@pytest.mark.parametrize("tier", ["exact", "fast"])
@pytest.mark.parametrize("entry", ["check_op", "compare_operators"])
def test_library_entry_points_follow_the_callers_tier(entry, tier):
    runs = {
        "check_op": lambda: gradcheck.check_op("carafe_down"),
        "compare_operators": lambda: compare_operators(
            ToyTask("seg2", size=8, sigma=2, seed=0),
            [SlotSpec("carafe", c_mid=4), SlotSpec("strided_conv")],
            seeds=(0,), arch="bottleneck", channels=4, epochs=1,
            train_count=2, eval_count=2),
    }
    with nn.exact_tier(tier == "exact"), _recorded_tiers() as seen:
        runs[entry]()
    assert seen and all(exact == (tier == "exact") for _, exact, _ in seen)


@pytest.mark.parametrize("tier", ["exact", "fast"])
def test_seed_sensitivity_trains_on_the_tier_it_names(monkeypatch, tier):
    script = _load_script("seed_sensitivity", monkeypatch)
    with nn.exact_tier(tier == "fast"), _recorded_tiers() as seen:
        metric, _ = script._train(script.EXPERIMENTS["down"],
                                  SlotSpec("strided_conv"), 0, 1, tier)
    assert seen and all(exact == (tier == "exact") for _, exact, _ in seen)
    assert 0.0 <= metric <= 1.0


def test_default_tier_is_fast_and_exact_tier_restores_it():
    assert not nn._EXACT.get()
    with pytest.raises(RuntimeError):
        with nn.exact_tier():
            assert nn._EXACT.get()
            with nn.exact_tier(exact=False):
                assert not nn._EXACT.get()
            assert nn._EXACT.get()
            raise RuntimeError
    assert not nn._EXACT.get()


def test_a_new_thread_starts_on_the_fast_tier():
    seen = []
    with nn.exact_tier():
        thread = threading.Thread(target=lambda: seen.append(nn._EXACT.get()))
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [False]


def _openblas_threads():
    """The thread count of the scipy-openblas build numpy loaded, read through
    ctypes from the library this process maps; None where there is none."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines()
             if "/libscipy_openblas64_" in line}
    if not paths:
        return None
    get = ctypes.CDLL(min(paths)).scipy_openblas_get_num_threads64_
    get.argtypes = []
    get.restype = ctypes.c_int
    return get()


def test_blas_uses_the_thread_count_set_before_numpy_loaded():
    # conftest.py at the repository root sets OPENBLAS_NUM_THREADS (to 1
    # unless the environment has a value) before any test imports numpy.
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy does not use a scipy-openblas build here")
    assert threads <= int(os.environ["OPENBLAS_NUM_THREADS"])
