"""Outside-in tracing of one faim run.

Spans are recorded by wrapping faim's public functions at the module global
through which the program looks them up (``faim.model.afb_forward``,
``faim.imb.ssm_scan``, ``faim.training.backward`` ...).  No file under
``src/faim`` is touched.

Forward spans remember the range of tape nodes they appended.  When
``backward`` runs, every node's ``rule`` is wrapped with a timer named after
the innermost forward span that recorded the node, so backward time is
charged to the same layer as the forward work that created it.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
once, as JSON lines ``{name, start, end, parent, run}``, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

import numpy as np

import faim.afb
import faim.imb
import faim.model
import faim.tensor
import faim.training

FORWARD_WRAPS = (
    # (module, global name, layer)
    (faim.model, "embed", "model.embed"),
    (faim.model, "afb_forward", "afb"),
    (faim.model, "imb_forward", "imb"),
    (faim.model, "layer_norm", "nn.layer_norm"),
    (faim.imb, "layer_norm", "nn.layer_norm"),
    (faim.imb, "causal_conv1d", "nn.causal_conv1d"),
    (faim.afb, "rfft", "spectral.fft"),
    (faim.afb, "irfft", "spectral.fft"),
    (faim.training, "batch_label_smoothed_ce", "training.loss"),
    (faim.training, "masked_mse", "training.loss"),
)
# ``linear`` and ``tmean`` in faim.model serve both the embedding and the
# heads; only calls made directly under a model forward are the head.
HEAD_WRAPS = ("linear", "tmean")
# Spans whose self time counts as charged to a named layer.
NAMED = frozenset(
    [f"{layer}.{d}" for layer in ("imb.ssm_scan", "imb", "afb", "spectral.fft", "nn.causal_conv1d",
                                   "nn.layer_norm", "model.embed", "model.head", "training.loss", "unowned")
     for d in ("fwd", "bwd")]
    + ["tensor.backward", "optim.adamw_step", "training.make_mask", "training.step"]
)
TOP_FORWARDS = ("classify_batch", "reconstruct_forward")


class Recorder:
    """Span stack plus the tape bookkeeping for backward attribution.

    With ``layers=False`` only training steps and model forwards are timed,
    a few microseconds per step: the untraced run uses this to time its
    units of work.
    """

    def __init__(self, layers: bool = True):
        self.layers = layers
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.ranges: list[tuple[int, str, object, int, int]] = []  # span, layer, tape, first, end
        self.forward_state_bytes: dict[int, int] = {}
        self.step_open: int | None = None
        self.nodes_per_step: list[int] = []
        self.rules_run = 0
        self.nodes_seen = 0
        self.tape_out_bytes: dict[str, list[int]] = {"afb": [], "imb": []}
        self.current_forward: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def timed(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrapping ----------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the step boundaries, and with ``layers`` every traced layer."""
        for attr in TOP_FORWARDS:
            self._patch(faim.training, attr, self._model_forward_wrapper(getattr(faim.training, attr)))
        self._patch(faim.training, "make_mask", self._step_start_wrapper(faim.training.make_mask))
        self._patch(faim.training, "adamw_step", self._step_end_wrapper(faim.training.adamw_step))
        if not self.layers:
            return
        for module, attr, layer in FORWARD_WRAPS:
            self._patch(module, attr, self._forward_wrapper(getattr(module, attr), layer))
        for attr in HEAD_WRAPS:
            self._patch(faim.model, attr, self._head_wrapper(getattr(faim.model, attr)))
        self._patch(faim.imb, "ssm_scan", self._scan_wrapper(faim.imb.ssm_scan))
        self._patch(faim.training, "backward", self._backward_wrapper(faim.training.backward))
        evaluate = faim.training.evaluate
        self._patch(faim.training, "evaluate", lambda *a, **k: self.timed("training.evaluate", evaluate, *a, **k))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _forward_wrapper(self, fn, layer: str):
        def wrapper(*args, **kwargs):
            tape = faim.tensor.active_tape() if self.layers else None
            first = len(tape.nodes) if tape is not None else 0
            idx = self.open(layer + ".fwd")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if tape is not None:
                    self.ranges.append((idx, layer, tape, first, len(tape.nodes)))

        return wrapper

    def _head_wrapper(self, fn):
        head = self._forward_wrapper(fn, "model.head")

        def wrapper(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == "model.fwd":
                return head(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _model_forward_wrapper(self, fn):
        forward = self._forward_wrapper(fn, "model")

        def wrapper(*args, **kwargs):
            if faim.tensor.active_tape() is not None:
                self._open_step()
            outer = self.current_forward
            self.current_forward = len(self.spans)
            self.forward_state_bytes[self.current_forward] = 0
            try:
                return forward(*args, **kwargs)
            finally:
                self.current_forward = outer

        return wrapper

    def _scan_wrapper(self, fn):
        forward = self._forward_wrapper(fn, "imb.ssm_scan")

        def wrapper(params, x):
            n_state = params.a_log.shape[-1]
            if self.current_forward is not None:
                # ssm_scan keeps one float64 state per (token, dim, state) of every row.
                self.forward_state_bytes[self.current_forward] += int(np.prod(x.shape)) * n_state * 8
            return forward(params, x)

        return wrapper

    def _open_step(self) -> None:
        if self.step_open is None:
            self.step_open = self.open("training.step")

    def _step_start_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self._open_step()
            return self.timed("training.make_mask", fn, *args, **kwargs)

        return wrapper

    def _step_end_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return self.timed("optim.adamw_step", fn, *args, **kwargs)
            finally:
                if self.step_open is not None:
                    self.close(self.step_open)
                    self.step_open = None

        return wrapper

    def _backward_wrapper(self, fn):
        def wrapper(tape, loss):
            for node, owner in zip(tape.nodes, self._node_owners(tape)):
                node.rule = functools.partial(self.timed, owner + ".bwd", node.rule)
            spans_before = len(self.spans)
            idx = self.open("tensor.backward")
            try:
                return fn(tape, loss)
            finally:
                self.close(idx)
                self.nodes_per_step.append(len(tape.nodes))
                self.nodes_seen += len(tape.nodes)
                self.rules_run += len(self.spans) - spans_before - 1
                # Drop every reference to this tape so its arrays can be freed.
                self.ranges = [r for r in self.ranges if r[2] is not tape]

        return wrapper

    def _node_owners(self, tape) -> list[str]:
        """Innermost recording layer of every node; records computed bytes."""
        owners = ["unowned"] * len(tape.nodes)
        mine = sorted((r for r in self.ranges if r[2] is tape), key=lambda r: r[0])
        for _, layer, _, first, end in mine:  # opened parents first, children overwrite
            owners[first:end] = [layer] * (end - first)
        for block in self.tape_out_bytes:
            total = 0
            for _, layer, _, first, end in mine:
                if layer == block:
                    for node in tape.nodes[first:end]:
                        total += sum(o.data.nbytes for o in node.outputs)
            self.tape_out_bytes[block].append(total)
        return owners

    # -- output ------------------------------------------------------------

    def write(self, path: str, run_id: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": run_id}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part its direct children cover."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def step_seconds(spans: list[list]) -> list[float]:
    """Durations of the training steps."""
    return [end - start for name, start, end, _ in spans if name == "training.step"]


def named_seconds(spans: list[list], first: int = 0) -> float:
    """Self time of the spans from index ``first`` on that belong to a named
    layer: the ones a per-layer metric reports, plus the loss and the
    backward rules of nodes no layer recorded."""
    selfs = self_times(spans)
    return sum(own for (name, *_), own in zip(spans[first:], selfs[first:]) if name in NAMED)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _quantile(values, q: int) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[q - 1])


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced run, as named in BENCHMARK.json."""
    selfs = self_times(rec.spans)
    by_name: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for (name, start, end, _), own in zip(rec.spans, selfs):
        by_name[name] += own
        durations[name].append(end - start)
    steps = durations["training.step"]
    return {
        "imb.ssm_scan.fwd_s": by_name["imb.ssm_scan.fwd"],
        "imb.ssm_scan.bwd_s": by_name["imb.ssm_scan.bwd"],
        "imb.ssm_scan.state_bytes": max(rec.forward_state_bytes.values(), default=0),
        "imb.fwd.self_s": by_name["imb.fwd"],
        "imb.bwd.self_s": by_name["imb.bwd"],
        "afb.fwd.self_s": by_name["afb.fwd"],
        "afb.bwd.self_s": by_name["afb.bwd"],
        "spectral.fft.fwd_s": by_name["spectral.fft.fwd"],
        "spectral.fft.bwd_s": by_name["spectral.fft.bwd"],
        "nn.causal_conv1d.fwd_s": by_name["nn.causal_conv1d.fwd"],
        "nn.causal_conv1d.bwd_s": by_name["nn.causal_conv1d.bwd"],
        "nn.layer_norm.fwd_s": by_name["nn.layer_norm.fwd"],
        "nn.layer_norm.bwd_s": by_name["nn.layer_norm.bwd"],
        "tensor.tape_nodes_per_step": _median(rec.nodes_per_step),
        "tensor.backward.self_s": by_name["tensor.backward"],
        "tensor.rules_run_ratio": rec.rules_run / rec.nodes_seen if rec.nodes_seen else 0.0,
        "optim.adamw_step_s": by_name["optim.adamw_step"],
        "optim.steps": len(durations["optim.adamw_step"]),
        "training.make_mask_s": by_name["training.make_mask"],
        "training.evaluate_s": sum(durations["training.evaluate"]),
        "training.step.self_s": by_name["training.step"],
        "training.step_s.p50": _median(steps),
        "training.step_s.p90": _quantile(steps, 9),
        "model.embed.fwd_s": by_name["model.embed.fwd"],
        "model.embed.bwd_s": by_name["model.embed.bwd"],
        "model.head.self_s": by_name["model.head.fwd"] + by_name["model.head.bwd"],
        "data.load_s": _median(durations["data.load"]),
        "data.znormalize_s": _median(durations["data.znormalize"]),
        "model.load_checkpoint_s": _median(durations["model.load_checkpoint"]),
        "afb.tape_out_bytes": _median(rec.tape_out_bytes["afb"]),
        "imb.tape_out_bytes": _median(rec.tape_out_bytes["imb"]),
    }
