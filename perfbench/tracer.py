"""Outside-in tracing of dermfeat's public functions.

A traced function is replaced, for the length of a traced pass, at every
name a caller resolves it through: module globals such as
``dermfeat.train.f1_loss`` or ``dermfeat.cli.mask_to_scores``, the module
attributes reached as ``model.forward`` or ``ops.conv2d``, and module-level
dicts such as the CLI's subcommand table. Nothing inside ``src/`` changes.

Each call records a span (name, start, end, parent span). Work counters
(FLOPs, bytes moved, cache size) are computed from array shapes, not read
from hardware counters.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

# Module -> public functions wrapped. checks and gradcheck are correctness
# tooling outside the user pipeline and are not traced.
TRACED = {
    "ops": ("conv2d", "conv2d_backward", "maxpool2d", "maxpool2d_backward",
            "relu", "relu_backward", "sigmoid", "sigmoid_backward",
            "bilinear_resize", "bilinear_resize_backward",
            "concat_channels", "split_channels"),
    "model": ("forward", "backward", "init_params", "save_params",
              "load_params"),
    "loss": ("f1_loss", "f1_loss_grad"),
    "train": ("train", "predict"),
    "superpixels": ("mask_to_scores", "labels_to_mask"),
    "metrics": ("evaluate", "auroc"),
    "data": ("generate", "load"),
    "netpbm": ("read_ppm8", "read_pgm16", "write_ppm8", "write_pgm16"),
    "cli": ("cmd_gen_data", "cmd_train", "cmd_predict", "cmd_eval"),
}

PACKAGE = "dermfeat"
_F64 = 8  # every dermfeat op computes in float64


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at the root
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; one instance per traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None
             ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._stack.pop()
            if measure is not None:
                span.work = measure(args, result)
            return result
        return traced


def covered_time(interval: tuple[float, float],
                 children: list[tuple[float, float]]) -> float:
    """Length of the part of `interval` that the union of `children` covers."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered_time((s.start, s.end), children[i])
            for i, s in enumerate(spans)]


@dataclass
class LayerStats:
    calls: int = 0
    ms: float = 0.0
    self_ms: float = 0.0
    call_ms: list[float] = field(default_factory=list)
    work_sum: dict = field(default_factory=lambda: defaultdict(float))
    work_max: dict = field(default_factory=lambda: defaultdict(float))


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    """Aggregate spans by name: calls, total and self time, work counters."""
    out: dict[str, LayerStats] = defaultdict(LayerStats)
    for s, self_s in zip(spans, self_times(spans)):
        st = out[s.name]
        st.calls += 1
        st.ms += 1e3 * s.duration
        st.self_ms += 1e3 * self_s
        st.call_ms.append(1e3 * s.duration)
        for key, value in s.work.items():
            st.work_sum[key] += value
            st.work_max[key] = max(st.work_max[key], value)
    return dict(out)


# --- work counters computed from array shapes -----------------------------

def _conv_gflop(weights, out) -> float:
    c_out, c_in, kh, kw = weights.shape
    return 2.0 * c_out * c_in * kh * kw * out.shape[1] * out.shape[2] / 1e9


def _conv(args, out):
    return {"gflop": _conv_gflop(args[1], out)}


def _conv_backward(args, out):
    # grad_input and grad_weights each cost one forward's multiply-adds.
    return {"gflop": 2.0 * _conv_gflop(args[1], args[3])}


def _moved(*arrays) -> dict:
    return {"mb_moved": _F64 * sum(a.size for a in arrays) / 1e6}


def _resize(args, out):
    return _moved(args[0], out)


def _concat(args, out):
    return _moved(*args[0], out)


def _split(args, out):
    return _moved(args[0], *out)


def _forward(args, out):
    cache = out[1]
    arrays: dict[int, object] = {}
    for f in dataclasses.fields(cache):
        value = getattr(cache, f.name)
        for a in value if isinstance(value, list) else [value]:
            arrays[id(a)] = a  # block_inputs[0] is the image itself
    return {"cache_mb": sum(a.nbytes for a in arrays.values()) / 1e6}


MEASURES = {
    "ops.conv2d": _conv,
    "ops.conv2d_backward": _conv_backward,
    "ops.bilinear_resize": _resize,
    "ops.bilinear_resize_backward": _resize,
    "ops.concat_channels": _concat,
    "ops.split_channels": _split,
    "model.forward": _forward,
}


# --- binding --------------------------------------------------------------

def package_namespaces() -> list[dict]:
    """Every mapping a caller in PACKAGE can resolve a function through:
    each loaded module's globals and the dicts held in them."""
    spaces = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        spaces.append(vars(mod))
        spaces.extend(v for k, v in vars(mod).items()
                      if isinstance(v, dict) and not k.startswith("__"))
    return spaces


def targets() -> dict[str, Callable]:
    """Span name -> original function for everything in TRACED."""
    return {f"{mod}.{fn}": getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
            for mod, fns in TRACED.items() for fn in fns}


def unwrapped_bindings(originals: dict[str, Callable],
                       spaces: list[dict]) -> list[str]:
    """Traced names some caller would still resolve to the bare function."""
    return sorted({name for name, fn in originals.items()
                   for space in spaces for value in space.values()
                   if value is fn})


class Installed:
    """Wrappers bound in place; `restore` puts every original back."""

    def __init__(self, tracer: Tracer, originals: dict[str, Callable],
                 spaces: list[dict]):
        self.originals = originals
        self._undo: list[tuple[dict, str, Callable]] = []
        # originals keeps every function alive, so an id match is identity.
        by_id = {id(fn): name for name, fn in originals.items()}
        wrappers = {name: tracer.wrap(name, fn, MEASURES.get(name))
                    for name, fn in originals.items()}
        for space in spaces:
            for key, value in list(space.items()):
                name = by_id.get(id(value))
                if name is not None:
                    space[key] = wrappers[name]
                    self._undo.append((space, key, value))

    def restore(self) -> None:
        for space, key, value in reversed(self._undo):
            space[key] = value
        self._undo.clear()


def install(tracer: Tracer) -> Installed:
    return Installed(tracer, targets(), package_namespaces())
