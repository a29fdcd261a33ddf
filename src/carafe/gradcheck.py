"""Finite-difference gradient oracle and the registry of checked operators.

The oracle is the ground truth every hand-derived backward pass is judged
against: central differences with a per-element step of eps * max(1, |x_i|)
and the relative error metric |a - b| / max(|a|, |b|, 1e-12). An element
that misses the tolerance on the 2-point difference is differenced again
with the 4-point stencil at FALLBACK_EPS before it counts: on an element
whose gradient is tiny next to the loss, the 2-point quotient at eps 1e-5 is
dominated by rounding in the loss (about eps_mach * |loss| / step), which the
wider, fourth-order stencil divides by a 100x larger step. Each registry
entry builds a small random problem (seeded), a scalar loss (a fixed random
projection of the operator output), and the analytic gradients, and check_op
compares the two over every input and parameter array, on the caller's tier
(nn.exact_tier): the registry's reassembly and conv ops run either tier's
backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import baselines, nn, reassembly
from .errors import ContractError, NumericError, ShapeError, UnknownNameError
from .tensor import Tensor

DEFAULT_TOL = 1e-5
DEFAULT_EPS = 1e-5
FALLBACK_EPS = 1e-3

# Central-difference stencils: (step multiples, weights, divisor), the
# quotient being sum(weight * f(x + multiple * step)) / (divisor * step).
TWO_POINT = ((1, -1), (1.0, -1.0), 2.0)
# Fourth order (Fornberg 1988): (-f(2h) + 8f(h) - 8f(-h) + f(-2h)) / 12h.
FOUR_POINT = ((2, 1, -1, -2), (-1.0, 8.0, -8.0, 1.0), 12.0)


@dataclass(frozen=True)
class GradReport:
    """Outcome of one operator check: pass iff max_rel_error < tol."""

    name: str
    max_rel_error: float
    max_abs_error: float
    worst_index: tuple
    tol: float
    passed: bool
    per_target: dict

    def to_payload(self) -> dict:
        return {
            "op": self.name,
            "max_rel_error": self.max_rel_error,
            "max_abs_error": self.max_abs_error,
            "worst_index": list(self.worst_index),
            "tol": self.tol,
            "passed": self.passed,
            "per_target": {k: v for k, v in sorted(self.per_target.items())},
        }


def relative_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| / max(|a|, |b|, 1e-12), elementwise."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return np.abs(a - b) / denom


def finite_diff_array(loss_fn: Callable[[], float], arr: np.ndarray,
                      eps: float = DEFAULT_EPS, indices=None,
                      stencil: tuple = TWO_POINT) -> np.ndarray:
    """Central-difference gradient of loss_fn wrt arr, perturbing in place.

    Step per element is eps * max(1, |value|). indices, flat indices into
    arr, limits the elements differenced (the rest read 0); by default every
    element is. arr is restored exactly.
    """
    if eps <= 0:
        raise ContractError(f"eps must be > 0, got {eps}")
    multiples, weights, divisor = stencil
    grad = np.zeros(arr.shape, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for idx in range(flat.size) if indices is None else indices:
        orig = flat[idx].item()
        step = eps * max(1.0, abs(orig))
        values = []
        for m in multiples:
            flat[idx] = orig + m * step
            values.append(loss_fn())
        flat[idx] = orig
        if not all(math.isfinite(v) for v in values):
            raise NumericError(
                f"loss is non-finite at perturbed element {idx}: "
                f"f at steps {multiples} = {values}")
        total = weights[0] * values[0]
        for wt, v in zip(weights[1:], values[1:]):
            total += wt * v
        gflat[idx] = total / (divisor * step)
    return grad


def finite_diff(f: Callable[[Tensor], float], x: Tensor,
                eps: float = DEFAULT_EPS) -> Tensor:
    """Central-difference gradient of a scalar function of one tensor."""
    arr = x.data.copy()
    grad = finite_diff_array(lambda: float(f(Tensor(arr))), arr, eps)
    return Tensor(grad)


@dataclass
class CheckProblem:
    """One prepared gradcheck: a loss over live arrays plus analytic grads.

    targets lists (label, array); the arrays are perturbed in place by the
    oracle, so loss must read them on every call. analytic() returns
    label -> gradient array snapshots computed by the backward under test.
    """

    loss: Callable[[], float]
    targets: list
    analytic: Callable[[], dict]


def check_problem(name: str, problem: CheckProblem, tol: float = DEFAULT_TOL,
                  eps: float = DEFAULT_EPS) -> GradReport:
    """Compare the analytic gradients with the finite differences, element
    by element; the report's errors are those after the 4-point fallback."""
    analytic = problem.analytic()
    max_rel = 0.0
    max_abs = 0.0
    worst: tuple = ()
    per_target: dict = {}
    for label, arr in problem.targets:
        if label not in analytic:
            raise UnknownNameError(f"analytic grads missing target {label!r}")
        numeric = finite_diff_array(problem.loss, arr, eps)
        ana = np.asarray(analytic[label], dtype=np.float64)
        if ana.shape != numeric.shape:
            raise ShapeError(
                f"analytic grad for {label!r} has shape {ana.shape}, "
                f"expected {numeric.shape}")
        rel = relative_error(ana, numeric)
        miss = np.flatnonzero(rel >= tol)
        if miss.size:
            redo = finite_diff_array(problem.loss, arr, FALLBACK_EPS, miss,
                                     FOUR_POINT)
            numeric.reshape(-1)[miss] = redo.reshape(-1)[miss]
            rel = relative_error(ana, numeric)
        absdiff = np.abs(ana - numeric)
        t_rel = float(rel.max())
        per_target[label] = t_rel
        if t_rel > max_rel:
            max_rel = t_rel
            multi = np.unravel_index(int(rel.argmax()), rel.shape)
            worst = (label,) + tuple(int(i) for i in multi)
        max_abs = max(max_abs, float(absdiff.max()))
    return GradReport(name=name, max_rel_error=max_rel, max_abs_error=max_abs,
                      worst_index=worst, tol=tol, passed=max_rel < tol,
                      per_target=per_target)


# ---------------------------------------------------------------------------
# problem builders


def _problem(rng: np.random.Generator, forward: Callable[[], Tensor],
             backward: Callable[[Tensor], object], inputs: list,
             params=None) -> CheckProblem:
    """Assemble one check from its forward/backward pair.

    inputs lists (label, array) of the live input arrays forward() reads;
    backward(grad_out) returns their gradients in that order (a bare Tensor
    for one input) and accumulates the grads of params, a container with
    named_slots(). The loss projection is drawn from rng last, shaped like
    forward()'s output. Targets are the inputs, then params' trainable
    arrays in container order.
    """
    proj = rng.uniform(-1.0, 1.0, size=forward().shape)
    named = [] if params is None else list(params.named_slots())

    def loss():
        return float(np.sum(proj * forward().data))

    def analytic():
        if params is not None:
            params.zero_grads()
        grads = backward(Tensor(proj))
        if isinstance(grads, Tensor):
            grads = (grads,)
        out = {label: g.data.copy()
               for (label, _), g in zip(inputs, grads, strict=True)}
        out.update((name, grad.copy()) for name, _, grad, _ in named)
        return out

    targets = list(inputs) + [(name, value) for name, value, _, _ in named]
    return CheckProblem(loss=loss, targets=targets, analytic=analytic)


def _build_conv2d(seed: int, stride: int, pad: int) -> CheckProblem:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(1, 2, 5, 5))
    p = nn.conv_params(3, 2, 3, rng)
    return _problem(
        rng, lambda: nn.conv2d_forward(Tensor(x), p, stride, pad),
        lambda g: nn.conv2d_backward(g, Tensor(x), p, stride, pad),
        [("x", x)], p)


def _build_transposed_conv(seed: int) -> CheckProblem:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(1, 3, 3, 3))
    p = nn.transposed_conv_params(3, 2, 4, rng)
    return _problem(
        rng, lambda: nn.transposed_conv_forward(Tensor(x), p, 2, 1),
        lambda g: nn.transposed_conv_backward(g, Tensor(x), p, 2, 1),
        [("x", x)], p)


def _build_relu(seed: int) -> CheckProblem:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(1, 4, 5, 5))
    return _problem(rng, lambda: nn.relu(Tensor(x)),
                    lambda g: nn.relu_backward(g, Tensor(x)), [("x", x)])


def _build_affine_norm(seed: int) -> CheckProblem:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(2, 3, 4, 4))
    p = nn.affine_params(3)
    p.gamma[:] = rng.uniform(0.5, 1.5, size=3)
    p.beta[:] = rng.uniform(-0.5, 0.5, size=3)
    return _problem(rng, lambda: nn.affine_norm(Tensor(x), p),
                    lambda g: nn.affine_norm_backward(g, Tensor(x), p),
                    [("x", x)], p)


def _build_softmax_group(seed: int) -> CheckProblem:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(1, 25, 3, 3))
    return _problem(rng, lambda: nn.softmax_group(Tensor(x), 25),
                    lambda g: nn.softmax_group_backward(
                        g, nn.softmax_group(Tensor(x), 25), 25),
                    [("x", x)])


def _build_pixel_shuffle(seed: int) -> CheckProblem:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(1, 8, 3, 3))
    return _problem(rng, lambda: nn.pixel_shuffle(Tensor(x), 2),
                    lambda g: nn.pixel_unshuffle(g, 2), [("x", x)])


def _build_reassemble(seed: int, direction: str) -> CheckProblem:
    rng = np.random.default_rng(seed)
    cfg = reassembly.CarafeConfig(direction=direction, sigma=2, k_reassembly=3,
                                  c_mid=4)
    x = rng.uniform(-1, 1, size=(1, 3, 6, 6))
    h_out, w_out = cfg.output_hw(6, 6)
    logits = rng.uniform(-1, 1, size=(1, 9, h_out, w_out))
    kf_data = nn.softmax_group(Tensor(logits), 9).data.copy()

    def field():
        return reassembly.KernelField(Tensor(kf_data), 3, True)

    return _problem(
        rng, lambda: reassembly.reassemble(Tensor(x), field(), cfg),
        lambda g: reassembly.reassemble_backward(g, Tensor(x), field(), cfg),
        [("x", x), ("kernels", kf_data)])


def _build_carafe(seed: int, direction: str, normalizer: str = "softmax") -> CheckProblem:
    rng = np.random.default_rng(seed)
    cfg = reassembly.CarafeConfig(direction=direction, sigma=2, k_encoder=3,
                                  k_reassembly=5, c_mid=4, normalizer=normalizer)
    x = rng.uniform(-1, 1, size=(1, 3, 6, 6))
    params = reassembly.carafe_params(3, cfg, rng)

    def forward():
        return reassembly.carafe_forward(Tensor(x), params, cfg)

    return _problem(rng, lambda: forward()[0],
                    lambda g: reassembly.carafe_backward(g, forward()[1]),
                    [("x", x)], params)


def _build_baseline(seed: int, kind: str, direction: str | None = None) -> CheckProblem:
    rng = np.random.default_rng(seed)
    op = baselines.make_resample_op(kind, 2, channels=3, rng=rng, direction=direction)
    x = rng.uniform(-1, 1, size=(1, 3, 6, 6))

    def forward():
        return baselines.resample_forward(op, Tensor(x))

    return _problem(
        rng, lambda: forward()[0],
        lambda g: baselines.resample_backward(op, g, forward()[1]),
        [("x", x)], op.params)


REGISTRY: dict[str, Callable[[int], CheckProblem]] = {
    "conv2d": lambda seed: _build_conv2d(seed, 1, 1),
    "conv2d_strided": lambda seed: _build_conv2d(seed, 2, 1),
    "transposed_conv": _build_transposed_conv,
    "relu": _build_relu,
    "affine_norm": _build_affine_norm,
    "softmax_group": _build_softmax_group,
    "pixel_shuffle": _build_pixel_shuffle,
    "reassemble_down": lambda seed: _build_reassemble(seed, "down"),
    "reassemble_up": lambda seed: _build_reassemble(seed, "up"),
    "carafe_down": lambda seed: _build_carafe(seed, "down"),
    "carafe_up": lambda seed: _build_carafe(seed, "up"),
    "carafe_down_sigmoid": lambda seed: _build_carafe(seed, "down", "sigmoid"),
    "carafe_up_sigmoid_norm": lambda seed: _build_carafe(seed, "up", "sigmoid_norm"),
    "nearest_up": lambda seed: _build_baseline(seed, "nearest_up"),
    "bilinear_up": lambda seed: _build_baseline(seed, "bilinear_up"),
    "avg_pool": lambda seed: _build_baseline(seed, "avg_pool"),
    "max_pool": lambda seed: _build_baseline(seed, "max_pool"),
    "strided_conv": lambda seed: _build_baseline(seed, "strided_conv"),
    "deconv_baseline": lambda seed: _build_baseline(seed, "transposed_conv"),
    "nearest_plus_conv": lambda seed: _build_baseline(seed, "nearest_plus_conv"),
    "bilinear_plus_conv": lambda seed: _build_baseline(seed, "bilinear_plus_conv"),
    "spatial_attention_down": lambda seed: _build_baseline(
        seed, "spatial_attention", "down"),
    "spatial_attention_up": lambda seed: _build_baseline(
        seed, "spatial_attention", "up"),
}


def registered_ops() -> list[str]:
    return list(REGISTRY)


def check_op(name: str, seed: int = 0, tol: float = DEFAULT_TOL,
             eps: float = DEFAULT_EPS) -> GradReport:
    """Run the registered finite-difference check for one operator, on the
    caller's tier."""
    if name not in REGISTRY:
        raise UnknownNameError(
            f"unknown op {name!r}; registered: {', '.join(sorted(REGISTRY))}")
    problem = REGISTRY[name](nn._at_least("seed", seed, 0, ContractError))
    return check_problem(name, problem, tol=tol, eps=eps)
