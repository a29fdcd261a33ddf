"""Span tracer that wraps the carafe package's public functions from outside.

The tracer replaces each public function of the measured layers with a
timing wrapper, in every module that holds a reference to it. That matters:
``reassembly``, ``baselines`` and ``demo`` bind nn functions with
``from .nn import ...``, so patching ``carafe.nn`` alone would leave their
references untouched and record nothing for the calls that matter.

Spans are aggregated as they close instead of being kept one by one: per
span name the tracer keeps the call count, the inclusive time and the self
time (inclusive time minus the time of child spans). Alongside the spans it
keeps two kinds of derived numbers:

- stage times of the content-aware operator. A direct child span of
  ``reassembly.carafe_forward``/``carafe_backward`` is assigned to one of the
  six pipeline stages; the two convolutions are told apart by the identity of
  the ``ConvLayerParams`` object passed in, which only works for operators
  whose ``CarafeParams`` were registered with :meth:`Tracer.register`.
- computed work: multiply-accumulates and compulsory bytes (every operand
  read or written once) of each convolution and reassembly call, derived
  from the argument and result shapes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("tensor", "nn", "reassembly", "baselines", "demo", "gradcheck")

# Methods of demo's layer and net classes; their self time is the glue that
# strings the library calls into a network.
_DEMO_GLUE_CLASSES = ("ConvLayer", "ReluLayer", "CarafeLayer", "BaselineLayer",
                      "MiniNet", "MiniFpn")
_DEMO_GLUE_METHODS = ("forward", "backward", "param_objects", "zero_grads")

STAGES = ("compressor", "norm", "encoder", "shuffle", "normalizer", "reassembly")

# Stage of each function called directly by carafe_forward/carafe_backward;
# None marks the convolutions, whose stage depends on the params object.
_STAGE_OF = {
    "nn.conv2d_forward": None, "nn.conv2d_backward": None,
    "nn.affine_norm": "norm", "nn.affine_norm_backward": "norm",
    "nn.relu": "norm", "nn.relu_backward": "norm",
    "nn.pixel_shuffle": "shuffle", "nn.pixel_unshuffle": "shuffle",
    "nn.softmax_group": "normalizer", "nn.softmax_group_backward": "normalizer",
    "nn.sigmoid_array": "normalizer",
    "reassembly.reassemble": "reassembly",
    "reassembly.reassemble_backward": "reassembly",
}
_CARAFE_SPANS = {"reassembly.carafe_forward": "fwd",
                 "reassembly.carafe_backward": "bwd"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _conv_work(name, args, kwargs, result):
    """(MACs, bytes) of one conv2d call, from its shapes."""
    if name == "nn.conv2d_forward":
        x, p, out = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "p"), result
        taps = p.weights[0].size
        macs = out.size * taps
        elems = x.size + p.weights.size + p.bias.size + out.size
    else:
        go = _arg(args, kwargs, 0, "grad_out")
        x, p = _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "p")
        taps = p.weights[0].size
        # grad_x and grad_weights each cost one forward's worth of MACs.
        macs = 2 * go.size * taps
        elems = go.size + 2 * x.size + 2 * p.weights.size + p.bias.size
    return macs, elems * x.dtype.itemsize


def _reassembly_work(name, args, kwargs, result):
    """(MACs, bytes) of one reassemble/reassemble_backward call."""
    if name == "reassembly.reassemble":
        x, kf, out = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "kf"), result
        macs = out.size * kf.k * kf.k
        elems = x.size + kf.tensor.size + out.size
    else:
        gy = _arg(args, kwargs, 0, "grad_y")
        x, kf = _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "kf")
        macs = 2 * gy.size * kf.k * kf.k
        elems = gy.size + 2 * x.size + 2 * kf.tensor.size
    return macs, elems * x.dtype.itemsize


_WORK = {"nn.conv2d_forward": _conv_work, "nn.conv2d_backward": _conv_work,
         "reassembly.reassemble": _reassembly_work,
         "reassembly.reassemble_backward": _reassembly_work}


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.stats`` afterwards.

    ``stats[name]`` is ``[calls, inclusive_ns, self_ns]``. ``top_ns`` is the
    time spent inside outermost spans, so a caller can tell how much of its
    own interval no span covers. ``stage_ns[(stage, "fwd"|"bwd")]`` and
    ``counters`` hold the derived numbers described in the module docstring.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0, 0])
        self.stage_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self.top_ns = 0
        self._stack = []
        self._operators = {}
        self._conv_roles = {}
        self._patches = []

    # -- registration -------------------------------------------------------

    def register(self, carafe_params) -> None:
        """Mark one operator's params so its stages can be attributed."""
        self._operators[id(carafe_params)] = carafe_params
        self._conv_roles[id(carafe_params.compressor)] = "compressor"
        self._conv_roles[id(carafe_params.encoder)] = "encoder"

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        entry = self.stats[name]
        carafe_dir = _CARAFE_SPANS.get(name)
        observe = name in _STAGE_OF or name in _WORK or name == \
            "gradcheck.finite_diff_array"
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0, None]  # [child_ns, stage direction or None]
            if carafe_dir is not None:
                params = (_arg(args, kwargs, 1, "params") if carafe_dir == "fwd"
                          else _arg(args, kwargs, 1, "cache").params)
                if self._operators.get(id(params)) is params:
                    frame[1] = carafe_dir
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_ns += dur
            if observe:
                self._observe(name, args, kwargs, result, dur)
            return result

        return functools.wraps(fn)(wrapper)

    def _observe(self, name, args, kwargs, result, dur):
        if name == "gradcheck.finite_diff_array":
            # Central differences: two loss evaluations per array element.
            self.counters["gradcheck.loss_evals"] += 2 * _arg(args, kwargs, 1, "arr").size
            return
        stage = direction = None
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent[1] is not None and name in _STAGE_OF:
            direction = parent[1]
            stage = _STAGE_OF[name]
            if stage is None:
                p = _arg(args, kwargs, 1 if name == "nn.conv2d_forward" else 2, "p")
                stage = self._conv_roles.get(id(p))
            if stage is not None:
                self.stage_ns[(stage, direction)] += dur
        work = _WORK.get(name)
        if work is None:
            return
        macs, nbytes = work(name, args, kwargs, result)
        self.counters[f"computed.{name}.macs"] += macs
        self.counters[f"computed.{name}.bytes"] += nbytes
        if stage is not None:
            self.counters[f"computed.stage.{stage}.{direction}.macs"] += macs
            self.counters[f"computed.stage.{stage}.{direction}.bytes"] += nbytes

    # -- install / uninstall ------------------------------------------------

    def _targets(self):
        """(span name, original callable, owner, attribute) to patch at the source."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"carafe.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    out.append((f"{layer}.{attr}", obj, mod, attr))
        tensor_cls = sys.modules["carafe.tensor"].Tensor
        out.append(("tensor.Tensor", tensor_cls.__init__, tensor_cls, "__init__"))
        demo = sys.modules["carafe.demo"]
        for cls_name in _DEMO_GLUE_CLASSES:
            cls = getattr(demo, cls_name)
            for meth in _DEMO_GLUE_METHODS:
                if meth in vars(cls):
                    out.append(("demo.net_glue", vars(cls)[meth], cls, meth))
        return out

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for name, fn, owner, attr in self._targets():
            wrapper = self._wrap(name, fn)
            wrappers[id(fn)] = wrapper
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        # Every other module that bound the same function object by import
        # (``from .nn import conv2d_forward``) gets the wrapper too.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "carafe" or mod_name.startswith("carafe.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ------------------------------------------------------------

    def layer_self_ns(self, layer: str) -> int:
        """Self time summed over every span of one layer."""
        return sum(s[2] for name, s in self.stats.items()
                   if name.split(".", 1)[0] == layer)
