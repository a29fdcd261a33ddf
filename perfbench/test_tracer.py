"""Tests of the benchmark's tracer and metric tables.

    python3 -m pytest perfbench/test_tracer.py
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import carafe  # noqa: E402
from carafe import baselines, demo, gradcheck, nn, reassembly  # noqa: E402
from carafe.tensor import Tensor  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import STAGES, Tracer  # noqa: E402


def _up_problem(compressor_norm=True):
    rng = np.random.default_rng(0)
    cfg = reassembly.CarafeConfig(direction="up", sigma=2, k_encoder=3,
                                  k_reassembly=3, c_mid=4,
                                  compressor_norm=compressor_norm)
    x = Tensor(rng.uniform(-1, 1, size=(2, 3, 4, 4)))
    params = reassembly.carafe_params(3, cfg, rng)
    grad_y = Tensor(rng.uniform(-1, 1, size=(2, 3, 8, 8)))
    return cfg, x, params, grad_y


def _fwd_bwd(cfg, x, params, grad_y):
    y, cache = reassembly.carafe_forward(x, params, cfg)
    reassembly.carafe_backward(grad_y, cache)
    return y


def _carafe_modules():
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "carafe" or name.startswith("carafe."))}


def test_patching_nn_alone_records_nothing():
    # reassembly bound conv2d_forward with ``from .nn import``, so replacing
    # the attribute of carafe.nn does not reach the operator's calls.
    calls = []
    original = nn.conv2d_forward

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    nn.conv2d_forward = counting
    try:
        _fwd_bwd(*_up_problem())
    finally:
        nn.conv2d_forward = original
    assert calls == []


def test_tracer_reaches_every_imported_reference():
    with Tracer() as tracer:
        wrapper = nn.conv2d_forward
        assert wrapper.__wrapped__ is not None
        for mod in (carafe, reassembly, baselines, demo):
            assert mod.conv2d_forward is wrapper
        _fwd_bwd(*_up_problem())
    assert tracer.stats["nn.conv2d_forward"][0] == 2
    assert tracer.stats["nn.conv2d_backward"][0] == 2
    assert tracer.stats["reassembly.reassemble"][0] == 1
    assert tracer.stats["tensor.Tensor"][0] > 0


def test_uninstall_restores_every_reference():
    before = {name: dict(vars(mod)) for name, mod in _carafe_modules().items()}
    init = Tensor.__init__
    with Tracer():
        pass
    for name, mod in _carafe_modules().items():
        for attr, obj in before[name].items():
            assert vars(mod)[attr] is obj, f"{name}.{attr} not restored"
    assert Tensor.__init__ is init


def test_self_times_partition_the_traced_time():
    with Tracer() as tracer:
        _fwd_bwd(*_up_problem())
    total_self = sum(s[2] for s in tracer.stats.values())
    assert total_self == tracer.top_ns
    for calls, incl, self_ns in tracer.stats.values():
        assert 0 <= self_ns <= incl


def test_stages_need_registered_params():
    cfg, x, params, grad_y = _up_problem()
    with Tracer() as tracer:
        _fwd_bwd(cfg, x, params, grad_y)
    assert not tracer.stage_ns

    tracer = Tracer()
    tracer.register(params)
    with tracer:
        _fwd_bwd(cfg, x, params, grad_y)
    assert set(tracer.stage_ns) == {(s, d) for s in STAGES
                                    for d in ("fwd", "bwd")}


def test_computed_work_from_shapes():
    cfg, x, params, grad_y = _up_problem(compressor_norm=False)
    tracer = Tracer()
    tracer.register(params)
    with tracer:
        _fwd_bwd(cfg, x, params, grad_y)
    c = tracer.counters
    n, c_in, h, w = x.shape
    # 1x1 compressor: one MAC per (output element, input channel).
    assert c["computed.stage.compressor.fwd.macs"] == n * cfg.c_mid * h * w * c_in
    assert c["computed.stage.compressor.bwd.macs"] == 2 * n * cfg.c_mid * h * w * c_in
    # Encoder, stride 1 with same padding: k_enc^2 * c_mid taps per output.
    enc = n * cfg.encoder_out_channels * h * w * cfg.c_mid * cfg.k_encoder ** 2
    assert c["computed.stage.encoder.fwd.macs"] == enc
    out = n * c_in * 2 * h * 2 * w
    assert c["computed.stage.reassembly.fwd.macs"] == out * cfg.k_reassembly ** 2
    assert c["computed.stage.reassembly.fwd.bytes"] == 8 * (
        x.size + n * cfg.kernel_channels * 2 * h * 2 * w + out)
    assert c["computed.nn.conv2d_forward.macs"] == \
        c["computed.stage.compressor.fwd.macs"] + enc


def test_loss_evals_match_the_workload_count():
    expected = workloads._gradcheck_setup(0)["loss_evals"]["conv2d"]
    with Tracer() as tracer:
        assert gradcheck.check_op("conv2d", seed=0).passed
    assert tracer.counters["gradcheck.loss_evals"] == expected == 2 * (50 + 54 + 3)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
