"""The three benchmark workloads, built only on the carafe package's public API.

Each workload is a closed loop with one caller: steps run back to back, and
the seed given on the command line makes every input. A workload provides

- ``setup(seed)``: builds the state the steps need (timed as ``setup_s``);
- ``pinned_check()``: steps on fixed inputs whose results are pinned in this
  file, run once per process before timing, which also warms every code
  path the steps take; returns ``(attempted, failed)``;
- ``step(state)``: the step the timed loop repeats, as ``(run, verify,
  items)``: ``run()`` is the timed part, ``verify(result)`` the untimed check
  of its output, ``items`` the work it completes for ``items_per_s``;
- ``register(state, tracer)``: tells the tracer which operator params it
  built, so the traced run can split the operator into stages;
- ``report(state)``: extra findings to print after the run.

Check tolerances are relative and far above the last-bit differences a
reordered (for example BLAS-backed) but correct implementation would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from carafe import demo, gradcheck, nn, reassembly
from carafe.tensor import Tensor

REL_TOL = 1e-8
CHECK_SEED = 0


def _close(value: float, ref: float, scale: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= REL_TOL * max(abs(scale), 1e-300)


def _checksum(a: np.ndarray) -> tuple[float, float]:
    """(sum, sum of |a|): the second scales the tolerance of the first."""
    return float(a.sum()), float(np.abs(a).sum())


def _checksums_close(got, ref) -> bool:
    return len(got) == len(ref) and all(
        _close(s, rs, ra) and _close(a, ra, ra)
        for (s, a), (rs, ra) in zip(got, ref))


@dataclass
class Workload:
    name: str
    item_unit: str
    setup: Callable
    pinned_check: Callable
    step: Callable
    register: Callable
    report: Callable = lambda state: {}


# ---------------------------------------------------------------------------
# train_toy: one full-batch SGD step of each of the four criterion-7/8 nets

TOY_EPISODE = 50
TOY_BATCH = 16
# The upsampling trend trains at 0.15, but there nearest_plus_conv diverges
# within 50 steps for 6 of seeds 0-99 (first at seed 28, step 11); at 0.05,
# the downsampling trend's rate, none of the four nets does. The rate does
# not change the work of a step.
TOY_LR = 0.05
# (label, arch, slot, task): the nets and tasks of the upsampling (super_res)
# and downsampling (seg2) training trends.
TOY_NETS = (
    ("up_carafe", "upsampler",
     demo.SlotSpec("carafe", k_encoder=3, k_reassembly=3, c_mid=8,
                   compressor_norm=True), "super_res"),
    ("up_nearest_plus_conv", "upsampler", demo.SlotSpec("nearest_plus_conv"),
     "super_res"),
    ("seg_carafe", "bottleneck",
     demo.SlotSpec("carafe", k_encoder=3, k_reassembly=3, c_mid=8), "seg2"),
    ("seg_strided_conv", "bottleneck", demo.SlotSpec("strided_conv"), "seg2"),
)
# Losses of the first three steps of each net at CHECK_SEED.
TOY_PINNED_LOSSES = {
    "up_carafe": (0.4174597416988747, 0.251643394973713, 0.09043433371136109),
    "up_nearest_plus_conv": (0.40707946711175774, 0.25594535221895554,
                             0.09627147966152858),
    "seg_carafe": (0.6979198553671222, 0.696752078194939, 0.6946469489121109),
    "seg_strided_conv": (0.6893661813956347, 0.6883125504597555,
                         0.6863167415842535),
}


@dataclass
class ToyNet:
    label: str
    net: object
    x: Tensor
    y: Tensor
    loss: str  # name of the demo loss, looked up per call so tracing sees it
    initial: list  # (array, saved copy) pairs, restored every episode


def _toy_setup(seed: int) -> dict:
    nets = []
    for label, arch, slot, kind in TOY_NETS:
        task = demo.ToyTask(kind, size=16, sigma=2, seed=seed)
        shared_ss, slot_ss = np.random.SeedSequence(seed).spawn(2)
        net = demo.build_net(arch, slot, 8, task.sigma,
                             np.random.default_rng(shared_ss),
                             np.random.default_rng(slot_ss))
        x, y = demo.dataset_batch(task, TOY_BATCH)
        loss = "bce_logits_loss" if kind == "seg2" else "mse_loss"
        arrays = [a for obj in net.param_objects()
                  for value, _, vel in obj.slots() for a in (value, vel)]
        nets.append(ToyNet(label, net, x, y, loss,
                           [(a, a.copy()) for a in arrays]))
    return {"nets": nets, "step": 0, "first_episode": []}


def _toy_sgd_step(t: ToyNet) -> float:
    """The body of demo.train's loop, for one net."""
    pred = t.net.forward(t.x)
    loss, grad = getattr(demo, t.loss)(pred, t.y)
    t.net.zero_grads()
    t.net.backward(grad)
    nn.sgd_step(t.net.param_objects(), TOY_LR, 0.9, 1e-4)
    return loss


def _toy_reset(state: dict) -> None:
    for t in state["nets"]:
        for arr, saved in t.initial:
            np.copyto(arr, saved)
    state["step"] = 0


def _toy_step(state: dict):
    def run():
        return tuple(_toy_sgd_step(t) for t in state["nets"])

    def verify(losses) -> bool:
        # Every episode restarts from the initial weights, so step i of each
        # episode must repeat the losses of step i of the first.
        i = state["step"]
        first = state["first_episode"]
        ok = all(math.isfinite(v) for v in losses)
        if len(first) <= i:
            first.append(losses)
        else:
            ok = ok and all(_close(v, r, r) for v, r in zip(losses, first[i]))
        state["step"] = i + 1
        if state["step"] == TOY_EPISODE:
            _toy_reset(state)
        return ok

    return run, verify, TOY_BATCH * len(state["nets"])


def _toy_pinned_check() -> tuple[int, int]:
    state = _toy_setup(CHECK_SEED)
    steps = len(next(iter(TOY_PINNED_LOSSES.values())))
    failed = 0
    for i in range(steps):
        losses = [(_toy_sgd_step(t), TOY_PINNED_LOSSES[t.label][i]) for t in state["nets"]]
        failed += not all(_close(v, r, r) for v, r in losses)
    return steps, failed


def _toy_register(state: dict, tracer) -> None:
    for t in state["nets"]:
        for layer in t.net.layers:
            if isinstance(layer, demo.CarafeLayer):
                tracer.register(layer.params)


TRAIN_TOY = Workload("train_toy", "training samples", _toy_setup,
                     _toy_pinned_check, _toy_step, _toy_register)


# ---------------------------------------------------------------------------
# carafe_paper: forward + backward of the operator alone at paper-like shape

PAPER_CASES = (
    ("up", (1, 256, 16, 16),
     dict(direction="up", sigma=2, k_encoder=3, k_reassembly=5, c_mid=64)),
    ("down", (1, 256, 32, 32),
     dict(direction="down", sigma=2, k_encoder=3, k_reassembly=5, c_mid=16,
          compressor_norm=True)),
)
KERNEL_TOL = 1e-9
# Checksums (sum, sum of |.|) of output, input grad and every param grad of
# each direction at CHECK_SEED.
PAPER_PINNED = {
    "up": ((168.663594169186, 22298.98266678499),
           (156.44326754528547, 11429.408098998812),
           (-204.5565796136997, 16279.33090400962),
           (19.385750937727067, 120.32475862912932),
           (6.394884621840902e-14, 45419.36903295919),
           (-1.1213252548714081e-14, 239.26794290225712)),
    "down": ((43.43281651887619, 6207.887199127816),
             (118.4811063406855, 13195.229916153768),
             (85.7998941629261, 9653.204850412538),
             (-1.7053025658242404e-13, 6353.111590902385),
             (-8.81239525796218e-16, 63.98179346350007),
             (-2.1889684440047996, 21.891496578507304),
             (-1.2136537733202473, 24.206069540587237)),
}


@dataclass
class PaperCase:
    label: str
    x: Tensor
    grad_y: Tensor
    params: reassembly.CarafeParams
    cfg: reassembly.CarafeConfig


def _paper_setup(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for label, shape, kw in PAPER_CASES:
        cfg = reassembly.CarafeConfig(**kw)
        x = Tensor(rng.uniform(-1.0, 1.0, size=shape))
        params = reassembly.carafe_params(shape[1], cfg, rng)
        h_out, w_out = cfg.output_hw(shape[2], shape[3])
        grad_y = Tensor(rng.uniform(-1.0, 1.0, size=(shape[0], shape[1], h_out, w_out)))
        cases.append(PaperCase(label, x, grad_y, params, cfg))
    return {"cases": cases, "reference": None}


def _paper_fwd_bwd(case: PaperCase):
    case.params.zero_grads()
    y, cache = reassembly.carafe_forward(case.x, case.params, case.cfg)
    gx = reassembly.carafe_backward(case.grad_y, cache)
    return y, cache.kf, gx


def _paper_summary(case: PaperCase, y, kf, gx):
    """(kernels normalized, checksums) of one forward + backward."""
    k = kf.tensor.data
    normalized = bool((k > 0).all()
                      and np.abs(k.sum(axis=1) - 1.0).max() <= KERNEL_TOL)
    grads = [g for obj in case.params.param_objects() for _, g, _ in obj.slots()]
    sums = tuple(_checksum(a) for a in [y.data, gx.data] + grads)
    return normalized, sums


def _paper_step(state: dict):
    def run():
        return [_paper_fwd_bwd(c) for c in state["cases"]]

    def verify(results) -> bool:
        # The inputs do not change between steps, so every step must repeat
        # the checksums of the first.
        ok = True
        summaries = []
        for case, (y, kf, gx) in zip(state["cases"], results):
            normalized, sums = _paper_summary(case, y, kf, gx)
            ok = ok and normalized and all(math.isfinite(a) for _, a in sums)
            summaries.append(sums)
        if state["reference"] is None:
            state["reference"] = summaries
        return ok and all(_checksums_close(s, r)
                          for s, r in zip(summaries, state["reference"]))

    return run, verify, len(state["cases"])


def _paper_pinned_check() -> tuple[int, int]:
    state = _paper_setup(CHECK_SEED)
    failed = 0
    for case in state["cases"]:
        normalized, sums = _paper_summary(case, *_paper_fwd_bwd(case))
        if not (normalized and _checksums_close(sums, PAPER_PINNED[case.label])):
            failed += 1
    return len(state["cases"]), failed


def _paper_register(state: dict, tracer) -> None:
    for case in state["cases"]:
        tracer.register(case.params)


CARAFE_PAPER = Workload("carafe_paper", "operator forward+backward pairs",
                        _paper_setup, _paper_pinned_check, _paper_step,
                        _paper_register)


# ---------------------------------------------------------------------------
# gradcheck_registry: every registered check_op, one whole pass per step

# check_op's verdict is relative error alone, which flags elements whose true
# gradient is tiny. Against the registry's 1e-5, carafe_up reads 1.0e-5 at
# seed 4 and 1.7e-4 at seed 6, and carafe_up_sigmoid_norm 1.4e-5 at seed 9,
# while their largest absolute errors stay below 1e-10. A step passes when
# the report passes or when its largest absolute error stays below
# GRADCHECK_ATOL (the mixed rule of numpy.allclose); each run lists the ops
# that passed only that way.
GRADCHECK_ATOL = 1e-6


def _gradcheck_setup(seed: int) -> dict:
    # Building each registered problem gives its loss-evaluation count: two
    # central-difference evaluations per element of every checked array.
    evals = {name: 2 * sum(arr.size for _, arr in gradcheck.REGISTRY[name](seed).targets)
             for name in gradcheck.registered_ops()}
    return {"seed": seed, "loss_evals": evals, "relative_misses": set()}


def _gradcheck_step(state: dict):
    # One step is a whole registry pass: single check_op calls take 2 ms to
    # 11 s, so a median over them would land between ops and jump from run to
    # run as machine noise reorders the ops near the middle.
    def run():
        return [gradcheck.check_op(name, seed=state["seed"])
                for name in state["loss_evals"]]

    def verify(reports) -> bool:
        ok = True
        for report in reports:
            if not report.passed:
                state["relative_misses"].add(report.name)
                ok = ok and report.max_abs_error < GRADCHECK_ATOL
        return ok

    return run, verify, sum(state["loss_evals"].values())


def _gradcheck_report(state: dict) -> dict:
    return {"relative_tol_misses": ",".join(sorted(state["relative_misses"])) or "none"}


GRADCHECK_REGISTRY = Workload("gradcheck_registry", "finite-difference loss evaluations",
                              _gradcheck_setup, lambda: (0, 0), _gradcheck_step,
                              lambda state, tracer: None, _gradcheck_report)


WORKLOADS = {w.name: w for w in (TRAIN_TOY, CARAFE_PAPER, GRADCHECK_REGISTRY)}
