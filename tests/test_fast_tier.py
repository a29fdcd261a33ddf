"""Gates of the fast tier: convolution and reassembly by one GEMM (a
batched one, for reassembly) per block of unfolded windows, the blocks
coming from nn._unfold_blocks; reassembly computes channels-last on both
tiers. The source gradient is one function on both tiers: per window
offset, the exact tier adds the phases one at a time and the fast tier
contracts them by one batched matmul. Its exact bits, and the fast down
direction's (one phase, so a single multiply), are gated here to be the
loop twin's, and the tap spans every scatter-add reads (nn._span,
nn._tap_spans) to be their definition.

The fast tier sums in BLAS order, so it is held to a tolerance against the
exact tier rather than to bits: per result array, max|fast - exact| /
max|exact|. The tolerances are pinned from measurement. Over 200 cases of
the criterion-6 generator and every conv shape of the train_toy and
carafe_paper benchmark workloads, the worst conv ratio was 3.0e-15 in fp64
and 3.0e-6 in fp32 when the bounds were set (both on a bias or weight
gradient), and is 2.5e-15 and 1.4e-6 with the blocked GEMM; the bounds
below leave about 3x of headroom over the first. The reassembly bounds are
set the same way, from the measurement quoted at REASSEMBLY_TOL. Both gates
also run with blocks small enough to split an image's rows and leave ragged
last blocks.

The last section gates where each tier runs. Every artifact writer reaches
each conv and each reassembly on the exact tier: every CLI command (sweep
worker threads included), scripts/compare_operators.py and
scripts/exact_digest.py. check_op and compare_operators run on their
caller's tier, and scripts/seed_sensitivity.py on the tier it names.
"""

import argparse
import ctypes
import importlib.util
import itertools
import json
import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from carafe import cli, gradcheck, nn, reassembly, reference
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
    ((1, 256, 32, 32), 16, 1, 1, 0), ((16, 1, 8, 8), 8, 3, 1, 1),
    ((16, 8, 8, 8), 8, 1, 1, 0), ((16, 8, 8, 8), 8, 3, 1, 1),
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


def _repeats_bit_for_bit(cases):
    for run in cases:
        first, second = run(), run()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


def test_fast_tier_repeats_bit_for_bit():
    _repeats_bit_for_bit(_cases(np.float64))


# ---------------------------------------------------------------------------
# reassembly

# Measured over the cases below: 9.0e-16 in fp64 (on a kernel gradient) and
# 5.5e-7 in fp32 (on a source gradient); about 3x of headroom, as for the
# convolutions. Re-measured, blocked cases included, after the backward
# moved to one channels-last copy of grad_y: the same two worst ratios,
# with source gradients at 7.5e-16 and 5.5e-7, forwards at 3.9e-16 and
# 2.2e-7.
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


def _reassembly_inputs(rng, x_shape, direction, k, sigma, dtype):
    """(x, grad_y, kernel field, config) drawn at random: signed kernel
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
    return x, gy, kf, cfg


def _reassembly_results(rng, x_shape, direction, k, sigma, dtype):
    """A function returning reassemble's output and both of
    reassemble_backward's gradients on fixed _reassembly_inputs."""
    x, gy, kf, cfg = _reassembly_inputs(rng, x_shape, direction, k, sigma, dtype)

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
    _repeats_bit_for_bit(_reassembly_cases(np.float64))


def _scatter_cases(direction):
    """(x shape, k, sigma): the shapes of WORKLOAD_REASSEMBLY in direction,
    then random draws of k 1-7, sigma 1-3, C 1-39 and maps up to 7 x 7."""
    for shape, d, k in WORKLOAD_REASSEMBLY:
        if d == direction:
            yield shape, k, 2
    rng = np.random.default_rng(214)
    for _ in range(60):
        yield ((int(rng.integers(1, 3)), int(rng.integers(1, 40)),
                int(rng.integers(1, 8)), int(rng.integers(1, 8))),
               int(rng.choice([1, 3, 5, 7])), int(rng.integers(1, 4)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("direction", ["down", "up"])
def test_source_gradient_scatter_keeps_the_loop_twins_bits(direction, dtype):
    # The exact tier's source gradient adds phase by phase in both
    # directions, so its bits are the loop twin's, signed zeros included.
    # The down direction's one phase is a single multiply on the fast tier
    # too; the fast up direction contracts its phases by matmul and is held
    # to REASSEMBLY_TOL above.
    rng = np.random.default_rng(73)
    for shape, k, sigma in _scatter_cases(direction):
        x, gy, kf, cfg = _reassembly_inputs(rng, shape, direction, k, sigma, dtype)
        with nn.exact_tier():
            exact = reassemble_backward(gy, x, kf, cfg)[0].data
        direct = reference.reassemble_backward_direct(gy, x, kf, cfg)[0]
        assert exact.dtype == direct.dtype == dtype
        assert exact.tobytes() == direct.tobytes(), (shape, k, sigma)
        if direction == "down":
            fast = reassemble_backward(gy, x, kf, cfg)[0].data
            assert fast.tobytes() == exact.tobytes(), (shape, k, sigma)


@pytest.mark.parametrize("step", [1, 2, 3])
def test_span_is_every_location_whose_source_lies_in_the_map(step):
    for d, count, size in itertools.product(range(-8, 9), range(8), range(1, 20)):
        locations, sources = nn._span(d, step, count, size)
        reached = [i for i in range(count) if 0 <= step * i + d < size]
        assert min(locations.start, locations.stop, sources.start,
                   sources.stop) >= 0, (d, count, size)
        assert list(range(count))[locations] == reached, (d, count, size)
        assert list(range(size))[sources] == [step * i + d for i in reached], (
            d, count, size)


def _pairs(span, count, size):
    """The (location, target) pairs one axis of a tap span names; no slice
    bound may be negative, which would count from the end."""
    locations, targets = span
    assert min(locations.start, locations.stop, targets.start,
               targets.stop) >= 0
    return list(zip(range(count)[locations], range(size)[targets]))


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_tap_spans_are_every_in_map_target_in_row_major_tap_order(k, stride):
    # Every (pad, hs, h, row0); each row case is paired with one (ws, w) in
    # turn, so every column case is met too.
    col_cases = list(itertools.product(range(7), range(1, 13)))
    row_cases = itertools.product(range(k + 1), range(7), range(1, 13), range(5))
    for case, (pad, hs, h, row0) in enumerate(row_cases):
        ws, w = col_cases[case % len(col_cases)]
        taps = nn._tap_spans(k, stride, pad, hs, ws, h, w, row0)
        rows = [taps[ki * k][0] for ki in range(k)]
        cols = [taps[kj][1] for kj in range(k)]
        assert taps == [(r, c) for r in rows for c in cols]
        for t in range(k):
            assert _pairs(rows[t], hs, h) == [
                (i, r) for i in range(hs)
                if 0 <= (r := stride * (row0 + i) + t - pad) < h], (
                pad, hs, h, row0, t)
            assert _pairs(cols[t], ws, w) == [
                (j, c) for j in range(ws)
                if 0 <= (c := stride * j + t - pad) < w], (pad, ws, w, t)


# ---------------------------------------------------------------------------
# block boundaries: at the cases below, 3000-byte blocks split each image's
# rows and leave the last block of each image ragged, and 25000-byte blocks
# hold several whole images with the last block of the batch ragged
# (test_block_bytes_split_rows_and_images checks this on the forward
# unfolds).

BLOCK_BYTES = (3000, 25000)
# The third conv, a padded 1 x 1, takes the scatter branch at stride 1:
# with pad >= k there is no padding k - 1 - pad for the gather.
BLOCK_CONVS = (((5, 3, 7, 5), 4, 3, 1, 1), ((5, 3, 9, 7), 4, 3, 2, 1),
               ((5, 3, 7, 5), 4, 1, 1, 1))
BLOCK_REASSEMBLY = (((5, 4, 7, 5), "up", 3), ((5, 4, 9, 7), "down", 3))


def _block_cases(dtype):
    rng = np.random.default_rng(45)
    convs = [_conv_results(rng, *case, dtype) for case in BLOCK_CONVS]
    reassemblies = [_reassembly_results(rng, shape, direction, k, 2, dtype)
                    for shape, direction, k in BLOCK_REASSEMBLY]
    return convs, reassemblies


def test_block_bytes_split_rows_and_images(monkeypatch):
    # The forward unfolds of the first conv (7 x 5 locations of 27 values)
    # and of the up reassembly (7 x 5 locations of 36 values), 5 images each.
    for row_bytes in (5 * 27 * 8, 5 * 36 * 8):
        monkeypatch.setattr(nn, "_BLOCK_BYTES", BLOCK_BYTES[0])
        assert nn._blocks(5, 7, row_bytes) == [
            (slice(b, b + 1), slice(i, i + 2)) for b in range(5)
            for i in (0, 2, 4, 6)]
        monkeypatch.setattr(nn, "_BLOCK_BYTES", BLOCK_BYTES[1])
        per = BLOCK_BYTES[1] // row_bytes // 7
        assert per in (2, 3)
        assert nn._blocks(5, 7, row_bytes) == [
            (slice(b, b + per), slice(0, 7)) for b in range(0, 5, per)]


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_blocked_fast_tier_within_pinned_tolerance_of_exact(monkeypatch,
                                                            block_bytes, dtype):
    monkeypatch.setattr(nn, "_BLOCK_BYTES", block_bytes)
    convs, reassemblies = _block_cases(dtype)
    assert _worst_ratio(convs, dtype) <= FAST_TOL[dtype]
    assert _worst_ratio(reassemblies, dtype) <= REASSEMBLY_TOL[dtype]


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
def test_blocked_fast_tier_repeats_bit_for_bit(monkeypatch, block_bytes):
    monkeypatch.setattr(nn, "_BLOCK_BYTES", block_bytes)
    convs, reassemblies = _block_cases(np.float64)
    _repeats_bit_for_bit(convs + reassemblies)


def test_fast_reassembly_returns_fresh_arrays_and_leaves_inputs_alone(monkeypatch):
    # At every workload shape, in fp64 and fp32, forward then backward:
    # every result is a C-contiguous NCHW array of x's dtype and its own
    # memory, no later call changes one, a second round repeats the first
    # bit for bit, and no input (the kernel field included) is written.
    rng = np.random.default_rng(10)
    calls = []
    for dtype, (x_shape, direction, k) in itertools.product(
            (np.float64, np.float32), WORKLOAD_REASSEMBLY):
        cfg = CarafeConfig(direction, 2, k_reassembly=k)
        n, c = x_shape[:2]
        h_out, w_out = cfg.output_hw(*x_shape[2:])
        logits = Tensor(rng.standard_normal((n, k * k, h_out, w_out)).astype(dtype))
        calls.append((Tensor(rng.uniform(-1, 1, x_shape).astype(dtype)),
                      KernelField(nn.softmax_group(logits, k * k), k, True),
                      Tensor(rng.uniform(-1, 1, (n, c, h_out, w_out)).astype(dtype)),
                      cfg))
    inputs = [a.data for x, kf, gy, _ in calls for a in (x, kf.tensor, gy)]
    before = [a.tobytes() for a in inputs]
    # Tensor copies a strided array into a contiguous one without a word,
    # so record what reassembly hands it: each result must be that array.
    handed = []

    def record(data):
        handed.append(data)
        return Tensor(data)

    monkeypatch.setattr(reassembly, "Tensor", record)

    def run():
        results, snapshots = [], []
        for x, kf, gy, cfg in calls:
            handed.clear()
            y = reassemble(x, kf, cfg)
            gx, gk = reassemble_backward(gy, x, kf, cfg)
            assert (y.shape, gx.shape, gk.shape) == (gy.shape, x.shape, kf.tensor.shape)
            assert all(t.data is a for t, a in zip((y, gx, gk), handed, strict=True))
            for t in (y, gx, gk):
                assert t.data.flags.c_contiguous and t.dtype == x.dtype
                results.append(t.data)
                snapshots.append(t.data.tobytes())
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
        return json.dumps(train(net, task, 4, 0.05, 0.9, 1e-4,
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
def test_gradients_hold_on_the_exact_tier(name):
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
