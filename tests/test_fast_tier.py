"""Gates of the fast tier: convolution by one BLAS product per tap.

The fast tier sums in BLAS order, so it is held to a tolerance against the
exact tier rather than to bits: per result array, max|fast - exact| /
max|exact|. The tolerances are pinned from measurement. Over 200 cases of
the criterion-6 generator and every conv shape of the train_toy and
carafe_paper benchmark workloads, the worst ratio was 3.0e-15 in fp64 and
3.0e-6 in fp32 (both on a bias or weight gradient); the bounds below leave
about 3x of headroom.

The last section gates where each tier runs: every CLI command (sweep
worker threads included), check_op, compare_operators and exact_digest reach
each conv on the exact tier, and scripts/seed_sensitivity.py on the tier it
names.
"""

import argparse
import importlib.util
import json
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from carafe import cli, gradcheck, nn
from carafe.demo import SlotSpec, ToyTask, compare_operators, seeded_net, train
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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fast_tier_within_pinned_tolerance_of_exact(dtype):
    worst = 0.0
    for run in _cases(dtype):
        fast = run()
        with nn.exact_tier():
            exact = run()
        for a, b in zip(fast, exact, strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype == dtype
            scale = float(np.abs(b).max(initial=0.0))
            err = float(np.abs(a.astype(np.float64) - b).max(initial=0.0))
            worst = max(worst, err / scale if scale else err)
    assert worst <= FAST_TOL[dtype]


def test_fast_tier_repeats_bit_for_bit():
    for run in _cases(np.float64):
        first, second = run(), run()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


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
    """Patch nn._gemm_tier, which every conv seam asks for its tier, to
    record (thread name, exact tier on) per seam reached."""
    seen = []
    gemm_tier = nn._gemm_tier

    def record(terms):
        seen.append((threading.current_thread().name, nn._EXACT.get()))
        return gemm_tier(terms)

    nn._gemm_tier = record
    try:
        yield seen
    finally:
        nn._gemm_tier = gemm_tier


def _reaches_a_conv(name):
    """Whether the registry problem runs a conv seam."""
    with _recorded_tiers() as seen:
        gradcheck.REGISTRY[name](0).analytic()
    return bool(seen)


CONV_OPS = [name for name in gradcheck.registered_ops() if _reaches_a_conv(name)]


def test_conv_ops_cover_every_conv_kind():
    assert {"conv2d", "conv2d_strided", "transposed_conv", "carafe_up",
            "carafe_down", "strided_conv"} <= set(CONV_OPS)


@pytest.mark.parametrize("name", CONV_OPS)
def test_gradients_hold_on_the_fast_tier(name):
    # check_op pins the exact tier; the registry problem run directly does not.
    report = gradcheck.check_problem(name, gradcheck.REGISTRY[name](0))
    assert report.passed, report.to_payload()


# ---------------------------------------------------------------------------
# where each tier runs: every entry point that writes an artifact or judges a
# contract reaches each conv on the exact tier, in whatever thread


def _load_script(name, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# One small run of every CLI command; test_cli_commands_are_all_here fails
# when a command is added without one.
CLI_RUNS = {
    "gradcheck": ["gradcheck", "--ops", "conv2d,transposed_conv,carafe_up"],
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
    assert seen and all(exact for _, exact in seen)
    if command == "sweep":
        # the cells ran in the pool's worker threads, not in this one
        assert {thread for thread, _ in seen} - {threading.current_thread().name}


@pytest.mark.parametrize("entry", ["check_op", "compare_operators",
                                   "exact_digest"])
def test_library_entry_points_run_on_the_exact_tier(monkeypatch, entry):
    runs = {
        "check_op": lambda: gradcheck.check_op("carafe_down"),
        "compare_operators": lambda: compare_operators(
            ToyTask("seg2", size=8, sigma=2, seed=0),
            [SlotSpec("carafe", c_mid=4), SlotSpec("strided_conv")],
            seeds=(0,), arch="bottleneck", channels=4, epochs=1,
            train_count=2, eval_count=2),
        "exact_digest": lambda: _load_script(
            "exact_digest", monkeypatch).digest(6, 0),
    }
    with _recorded_tiers() as seen:
        runs[entry]()
    assert seen and all(exact for _, exact in seen)


@pytest.mark.parametrize("tier", ["exact", "fast"])
def test_seed_sensitivity_trains_on_the_tier_it_names(monkeypatch, tier):
    script = _load_script("seed_sensitivity", monkeypatch)
    with nn.exact_tier(tier == "fast"), _recorded_tiers() as seen:
        metric, _ = script._train(script.EXPERIMENTS["down"],
                                  SlotSpec("strided_conv"), 0, 1, tier)
    assert seen and all(exact == (tier == "exact") for _, exact in seen)
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
