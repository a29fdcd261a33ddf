"""Toy training harness: procedural tasks, slot-swappable mini nets, SGD.

Three dense-prediction tasks are generated procedurally (soft blobs plus
oriented bars, so resampling actually has edges to preserve):

- super_res: recover a size x size image from its sigma-box-downsampled copy
- inpaint: reconstruct an image with a rectangle zeroed out
- seg2: two-class blob-mask segmentation from a noisy image

Two sequential architectures plus a two-level top-down fusion net share one
construction rule: all non-slot layers draw their init from a "shared" rng
stream and the resampler slot draws from its own, so swapping the slot
changes nothing else — identical budgets by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .baselines import (ALL_KINDS, make_resample_op, resample_backward,
                        resample_forward)
from .errors import ContractError, GeometryError, ShapeError, TrainingDiverged
from .nn import (_Params, _at_least, conv2d_backward, conv2d_forward,
                 conv_params, relu, relu_backward, sgd_step, sigmoid_array)
from .reassembly import (CarafeConfig, carafe_backward, carafe_forward,
                         carafe_params)
from .tensor import Tensor

TASK_KINDS = ("super_res", "inpaint", "seg2")
ARCHITECTURES = ("upsampler", "bottleneck", "fpn")
SLOT_KINDS = ("carafe",) + ALL_KINDS


@dataclass(frozen=True)
class ToyTask:
    """One procedural dataset family; generation is pure in (kind, size, sigma, seed)."""

    kind: str
    size: int = 16
    sigma: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ContractError(f"task kind must be one of {TASK_KINDS}, got {self.kind!r}")
        for name, low, error in (("size", 4, GeometryError), ("sigma", 1, GeometryError),
                                 ("seed", 0, ContractError)):
            object.__setattr__(self, name, _at_least(name, getattr(self, name), low, error))
        if self.size % self.sigma:
            raise GeometryError(
                f"task size {self.size} must be divisible by sigma {self.sigma}")

    @property
    def metric_name(self) -> str:
        return "iou" if self.kind == "seg2" else "psnr"


def _render_scene(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
    """One flat-shaded scene in [0,1] plus its shape-union foreground mask.

    Disks, half-planes, and stripes at arbitrary orientations, painted
    back-to-front so later shapes occlude earlier ones. Edges land at every
    angle, so no axis-aligned fixed filter is a privileged fit for the
    resampling tasks built on these scenes.
    """
    coords = (np.arange(size) + 0.5) / size
    yy = coords[:, None] * np.ones((1, size))
    xx = np.ones((size, 1)) * coords[None, :]
    img = np.full((size, size), rng.uniform(0.05, 0.2))
    mask = np.zeros((size, size))
    for _ in range(int(rng.integers(3, 6))):
        kind = int(rng.integers(0, 3))
        amp = rng.uniform(0.25, 1.0)
        if kind == 0:
            cy, cx = rng.uniform(0.25, 0.75, size=2)
            rad = rng.uniform(0.12, 0.3)
            inside = (yy - cy) ** 2 + (xx - cx) ** 2 < rad * rad
        elif kind == 1:
            theta = rng.uniform(0.0, np.pi)
            cy, cx = rng.uniform(0.3, 0.7, size=2)
            inside = (yy - cy) * np.sin(theta) + (xx - cx) * np.cos(theta) > 0.0
        else:
            theta = rng.uniform(0.0, np.pi)
            center = rng.uniform(0.25, 0.75)
            hw = rng.uniform(0.05, 0.12)
            inside = np.abs(yy * np.sin(theta) + xx * np.cos(theta) - center) < hw
        img = np.where(inside, amp, img)
        mask = np.where(inside, 1.0, mask)
    return img, mask


def _box_down(img: np.ndarray, sigma: int) -> np.ndarray:
    h, w = img.shape
    return img.reshape(h // sigma, sigma, w // sigma, sigma).mean(axis=(1, 3))


def make_dataset(task: ToyTask, count: int, dtype=np.float64
                 ) -> list[tuple[Tensor, Tensor]]:
    """count (input, target) pairs, deterministic per (task, count prefix)."""
    count = _at_least("count", count, 1, ContractError)
    rng = np.random.default_rng(task.seed)
    dt = np.dtype(dtype)
    out = []
    for _ in range(count):
        img, mask = _render_scene(rng, task.size)
        if task.kind == "super_res":
            x = _box_down(img, task.sigma)
            y = img
        elif task.kind == "inpaint":
            rh = int(rng.integers(task.size // 4, task.size // 2 + 1))
            rw = int(rng.integers(task.size // 4, task.size // 2 + 1))
            top = int(rng.integers(0, task.size - rh + 1))
            left = int(rng.integers(0, task.size - rw + 1))
            x = img.copy()
            x[top:top + rh, left:left + rw] = 0.0
            y = img
        else:
            x = np.clip(img + rng.normal(0.0, 0.03, size=img.shape), 0.0, 1.0)
            y = mask
        out.append((Tensor(x.astype(dt)[None, None]), Tensor(y.astype(dt)[None, None])))
    return out


def dataset_batch(task: ToyTask, count: int, dtype=np.float64) -> tuple[Tensor, Tensor]:
    """The dataset stacked into one (count, 1, h, w) input/target pair."""
    pairs = make_dataset(task, count, dtype)
    x = np.concatenate([p[0].data for p in pairs], axis=0)
    y = np.concatenate([p[1].data for p in pairs], axis=0)
    return Tensor(x), Tensor(y)


# ---------------------------------------------------------------------------
# losses and metrics


def mse_loss(pred: Tensor, target: Tensor) -> tuple[float, Tensor]:
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    diff = pred.data - target.data
    loss = float(np.mean(diff * diff, dtype=np.float64))
    grad = (2.0 / diff.size) * diff
    return loss, Tensor(grad)


def bce_logits_loss(pred: Tensor, target: Tensor) -> tuple[float, Tensor]:
    """Mean binary cross-entropy on logits, in the stable max-form."""
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    z = pred.data
    t = target.data
    per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    loss = float(np.mean(per, dtype=np.float64))
    grad = (sigmoid_array(z) - t) / z.size
    return loss, Tensor(grad)


def psnr(pred: Tensor, target: Tensor) -> float:
    """Peak signal-to-noise ratio against a [0,1] target (MAX = 1)."""
    diff = pred.data.astype(np.float64) - target.data.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def iou(pred_logits: Tensor, target: Tensor) -> float:
    """Intersection over union of (logit > 0) vs (target > 0.5)."""
    p = pred_logits.data > 0
    t = target.data > 0.5
    union = np.logical_or(p, t).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(p, t).sum() / union)


# ---------------------------------------------------------------------------
# layers


class ConvLayer:
    def __init__(self, params, stride: int = 1, pad: int = 0):
        self.params = params
        self.stride = stride
        self.pad = pad
        self._x = None

    def forward(self, x: Tensor) -> Tensor:
        self._x = x
        return conv2d_forward(x, self.params, self.stride, self.pad)

    def backward(self, grad: Tensor) -> Tensor:
        return conv2d_backward(grad, self._x, self.params, self.stride, self.pad)


class ReluLayer:
    params = None

    def __init__(self):
        self._x = None

    def forward(self, x: Tensor) -> Tensor:
        self._x = x
        return relu(x)

    def backward(self, grad: Tensor) -> Tensor:
        return relu_backward(grad, self._x)


class CarafeLayer:
    def __init__(self, params, cfg: CarafeConfig):
        self.params = params
        self.cfg = cfg
        self.direction = cfg.direction
        self._cache = None

    def forward(self, x: Tensor) -> Tensor:
        y, self._cache = carafe_forward(x, self.params, self.cfg)
        return y

    def backward(self, grad: Tensor) -> Tensor:
        return carafe_backward(grad, self._cache)


class BaselineLayer:
    def __init__(self, op):
        self.op = op
        self.direction = op.direction
        self._cache = None

    @property
    def params(self):
        return self.op.params

    def forward(self, x: Tensor) -> Tensor:
        y, self._cache = resample_forward(self.op, x)
        return y

    def backward(self, grad: Tensor) -> Tensor:
        return resample_backward(self.op, grad, self._cache)


# ---------------------------------------------------------------------------
# nets


class SlotSpec:
    """What fills a net's resampler slot: a kind from SLOT_KINDS and the
    CarafeConfig options past direction and sigma, which only carafe reads.
    The options are checked here, whatever the kind: an option CarafeConfig
    does not take raises TypeError, a bad value CarafeConfig's CarafeError."""

    def __init__(self, kind: str, **options):
        CarafeConfig("up", 1, **options)
        self.kind = kind
        self.options = options


def make_slot_layer(spec: SlotSpec, direction: Optional[str], sigma: int,
                    channels: int, rng: np.random.Generator, dtype):
    """The layer that fills a slot, resampling in direction; None stands for
    the only direction of a baseline kind that has one."""
    if spec.kind == "carafe":
        cfg = CarafeConfig(direction, sigma, **spec.options)
        return CarafeLayer(carafe_params(channels, cfg, rng, dtype), cfg)
    return BaselineLayer(make_resample_op(spec.kind, sigma, channels=channels,
                                          rng=rng, dtype=dtype,
                                          direction=direction))


class MiniNet(_Params):
    """A straight stack of layers with one designated resampler slot; its
    parameter parts are named by layer index."""

    def __init__(self, layers: list, slot_name: str):
        self.layers = layers
        self.slot_name = slot_name

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: Tensor) -> Tensor:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def _parts(self) -> list:
        return [(str(i), layer.params) for i, layer in enumerate(self.layers)
                if layer.params is not None]


class MiniFpn(_Params):
    """Two-level top-down fusion: lateral 1x1s, one upsampling slot, one add.
    Its parameter parts are named by attribute."""

    _LAYERS = ("stem", "down", "lat_hi", "lat_lo", "slot", "head")

    def __init__(self, stem, down, lat_hi, lat_lo, slot, head, slot_name: str):
        self.stem = stem
        self.down = down
        self.lat_hi = lat_hi
        self.lat_lo = lat_lo
        self.slot = slot
        self.head = head
        self.slot_name = slot_name
        self._relu1 = ReluLayer()
        self._relu2 = ReluLayer()

    def forward(self, x: Tensor) -> Tensor:
        c1 = self._relu1.forward(self.stem.forward(x))
        c2 = self._relu2.forward(self.down.forward(c1))
        up = self.slot.forward(self.lat_lo.forward(c2))
        merged = Tensor(self.lat_hi.forward(c1).data + up.data)
        return self.head.forward(merged)

    def backward(self, grad: Tensor) -> Tensor:
        g_merged = self.head.backward(grad)
        g_c1_lat = self.lat_hi.backward(g_merged)
        g_c2 = self.lat_lo.backward(self.slot.backward(g_merged))
        g_c1_down = self.down.backward(self._relu2.backward(g_c2))
        g_c1 = Tensor(g_c1_lat.data + g_c1_down.data)
        return self.stem.backward(self._relu1.backward(g_c1))

    def _parts(self) -> list:
        return [(name, getattr(self, name).params) for name in self._LAYERS
                if getattr(self, name).params is not None]


def build_net(arch: str, slot: SlotSpec, channels: int, sigma: int,
              rng_shared: np.random.Generator, rng_slot: np.random.Generator,
              dtype=np.float64):
    """Construct a net; non-slot layers draw only from rng_shared.

    upsampler: conv-relu, slot (up), conv head. For super_res.
    bottleneck: conv-relu, slot (down), conv-relu, fixed nearest up, conv
    head. For tasks whose target matches the input size.
    fpn: two-level top-down fusion with the slot as its upsampler.
    """
    if arch not in ARCHITECTURES:
        raise ContractError(f"arch must be one of {ARCHITECTURES}, got {arch!r}")
    if arch == "upsampler":
        layers = [
            ConvLayer(conv_params(channels, 1, 3, rng_shared, dtype), 1, 1),
            ReluLayer(),
            make_slot_layer(slot, "up", sigma, channels, rng_slot, dtype),
            ConvLayer(conv_params(1, channels, 3, rng_shared, dtype), 1, 1),
        ]
        return MiniNet(layers, slot.kind)
    if arch == "bottleneck":
        layers = [
            ConvLayer(conv_params(channels, 1, 3, rng_shared, dtype), 1, 1),
            ReluLayer(),
            make_slot_layer(slot, "down", sigma, channels, rng_slot, dtype),
            ConvLayer(conv_params(channels, channels, 3, rng_shared, dtype), 1, 1),
            ReluLayer(),
            BaselineLayer(make_resample_op("nearest_up", sigma)),
            ConvLayer(conv_params(1, channels, 3, rng_shared, dtype), 1, 1),
        ]
        return MiniNet(layers, slot.kind)
    stem = ConvLayer(conv_params(channels, 1, 3, rng_shared, dtype), 1, 1)
    down = ConvLayer(conv_params(channels, channels, 3, rng_shared, dtype), sigma, 1)
    lat_hi = ConvLayer(conv_params(channels, channels, 1, rng_shared, dtype), 1, 0)
    lat_lo = ConvLayer(conv_params(channels, channels, 1, rng_shared, dtype), 1, 0)
    head = ConvLayer(conv_params(1, channels, 3, rng_shared, dtype), 1, 1)
    slot_layer = make_slot_layer(slot, "up", sigma, channels, rng_slot, dtype)
    return MiniFpn(stem, down, lat_hi, lat_lo, slot_layer, head, slot.kind)


def seeded_net(arch: str, slot: SlotSpec, channels: int, sigma: int, seed: int,
               dtype=np.float64):
    """build_net with the trunk and the slot drawing from the two streams
    that SeedSequence(seed).spawn(2) gives, in that order: every slot built
    from one seed sees bitwise-equal trunk parameters."""
    seed = _at_least("seed", seed, 0, ContractError)
    shared_ss, slot_ss = np.random.SeedSequence(seed).spawn(2)
    return build_net(arch, slot, channels, sigma, np.random.default_rng(shared_ss),
                     np.random.default_rng(slot_ss), dtype)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainRunReport:
    """Loss series plus the final held-out metric for one training run."""

    operator: str
    task: str
    seed: int
    epochs: int
    lr: float
    losses: list = field(default_factory=list)
    final_loss: float = float("nan")
    metric_name: str = ""
    final_metric: float = float("nan")

    def to_payload(self) -> dict:
        """JSON-ready dict; runs record no timings (timing: excluded)."""
        return {**asdict(self), "timing": "excluded"}


def _task_loss(task: ToyTask):
    return bce_logits_loss if task.kind == "seg2" else mse_loss


def _task_metric(task: ToyTask):
    return iou if task.kind == "seg2" else psnr


def evaluate(net, task: ToyTask, count: int, dtype=np.float64) -> float:
    """Final metric on the held-out stream (task seed shifted by 1e6)."""
    eval_task = replace(task, seed=task.seed + 1_000_000)
    x, y = dataset_batch(eval_task, count, dtype)
    pred = net.forward(x)
    return _task_metric(task)(pred, y)


def train(net, task: ToyTask, epochs: int, lr: float, momentum: float = 0.9,
          weight_decay: float = 1e-4, train_count: int = 16,
          eval_count: int = 8, dtype=np.float64) -> TrainRunReport:
    """Full-batch SGD on the task's dataset.

    epochs, train_count and eval_count that are not integers >= 1 raise
    ContractError before any step. A step that overflows, makes an invalid
    value or ends at a non-finite loss raises TrainingDiverged. The dataset
    is generated from task.seed, and the report records it.
    """
    epochs, train_count, eval_count = (_at_least(name, value, 1, ContractError) for name, value in (
        ("epochs", epochs), ("train_count", train_count), ("eval_count", eval_count)))
    x, y = dataset_batch(task, train_count, dtype)
    loss_fn = _task_loss(task)
    report = TrainRunReport(operator=getattr(net, "slot_name", "?"),
                            task=task.kind, seed=task.seed,
                            epochs=epochs, lr=lr,
                            metric_name=task.metric_name)
    for step in range(epochs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                pred = net.forward(x)
                loss, grad = loss_fn(pred, y)
                if not np.isfinite(loss):
                    raise FloatingPointError(f"non-finite loss {loss}")
                report.losses.append(loss)
                net.zero_grads()
                net.backward(grad)
                sgd_step(net, lr, momentum, weight_decay)
        except FloatingPointError as exc:
            raise TrainingDiverged(
                f"{exc} at step {step} "
                f"(operator={report.operator}, task={task.kind}, lr={lr})") from exc
    report.final_loss = report.losses[-1]
    report.final_metric = evaluate(net, task, eval_count, dtype)
    return report


@dataclass(frozen=True)
class OperatorSummary:
    """Cross-seed statistics for one slot operator."""

    operator: str
    per_seed: tuple
    mean: float
    sd: float


def compare_operators(task: ToyTask, roster: list, seeds, arch: str,
                      channels: int = 8, epochs: int = 40, lr: float = 0.05,
                      train_count: int = 16, eval_count: int = 8
                      ) -> list[OperatorSummary]:
    """Train every roster slot under identical budgets, with train's
    momentum, weight decay and dtype, on the caller's tier, and summarize.

    Each training seed replaces task's own seed, which is never read: per
    (slot, seed) the net comes from seeded_net(seed) and the data from the
    task at that seed, so every operator sees bitwise-equal trunk
    parameters and data. sd is the population standard deviation.
    """
    if not roster:
        raise ContractError("roster must not be empty")
    rows = []
    for spec in roster:
        per_seed = []
        for seed in seeds:
            net = seeded_net(arch, spec, channels, task.sigma, seed)
            rep = train(net, replace(task, seed=seed), epochs, lr,
                        train_count=train_count, eval_count=eval_count)
            per_seed.append(rep.final_metric)
        rows.append(OperatorSummary(operator=spec.kind, per_seed=tuple(per_seed),
                                    mean=float(np.mean(per_seed)),
                                    sd=float(np.std(per_seed))))
    return rows
