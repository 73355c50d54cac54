"""Opt-in span tracing of the evcseg layers, from outside the program.

`Tracer.install()` swaps selected module attributes for wrappers that
record a span per call: name, start, end, parent span and run id (one
per root span, so the spans of one operation share it). The
wrappers sit on the attributes the program looks its callees up by (for
example `evcseg.pipeline.refine`, not `evcseg.crf.refine`), so the
program's code is unchanged. Spans stay in memory until `write()`.

Spans named in PEAK_SPANS also record the peak of tracemalloc-tracked
memory (numpy buffers included) above what was live when they began.
Those spans never nest inside one another, so resetting the tracemalloc
peak at their start loses nothing.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass

import evcseg.crf
import evcseg.evnet.network
import evcseg.pipeline

# span name -> (module, attribute) wrapped under that name
WRAPPED = {
    "evnet.checkpoint_load": (evcseg.pipeline, "load_checkpoint"),
    "nifti.read": (evcseg.pipeline, "read_nifti"),
    "nifti.write": (evcseg.pipeline, "write_nifti"),
    "pipeline.preprocess": (evcseg.pipeline, "preprocess_volume"),
    "evnet.forward": (evcseg.pipeline, "evnet_forward"),
    "evnet.backward": (evcseg.pipeline, "evnet_backward"),
    "evnet.sgd_step": (evcseg.pipeline, "sgd_step"),
    "augment.rigid": (evcseg.pipeline, "rigid_augment"),
    "augment.intensity": (evcseg.pipeline, "intensity_augment"),
    "crf.refine": (evcseg.pipeline, "refine"),
    "postproc.cleanup": (evcseg.pipeline, "component_cleanup"),
    "volume.mask_to_native": (evcseg.pipeline, "mask_to_native"),
    "metrics.evaluate_case": (evcseg.pipeline, "_score_case"),
    "crf.message_pass": (evcseg.crf, "filtered_message_pass"),
    "bilateral.filter": (evcseg.crf, "bilateral_filter"),
    "evnet.conv3d_forward": (evcseg.evnet.network, "conv3d_forward"),
    "evnet.conv3d_backward": (evcseg.evnet.network, "conv3d_backward"),
}
PEAK_SPANS = ("crf.message_pass", "evnet.forward", "evnet.backward")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    peak_bytes: int | None = None
    flops: int | None = None


def conv3d_flops(kernel_shape, out_shape) -> int:
    """Multiply-adds x 2 of one conv3d_forward, computed from tensor shapes."""
    o, c, kd, kh, kw = kernel_shape
    n, _, od, oh, ow = out_shape
    return 2 * n * o * c * kd * kh * kw * od * oh * ow


# span name -> computed op count, from the call's (args, result)
FLOPS = {
    # conv3d_forward(x, kernel, ...) -> (y, cache)
    "evnet.conv3d_forward": lambda args, out: conv3d_flops(args[1].shape, out[0].shape),
    # conv3d_backward(grad_y, cache): grad_kernel and grad_x are one GEMM
    # each of the forward's size; cache[1] is the kernel
    "evnet.conv3d_backward": lambda args, out: 2 * conv3d_flops(args[1][1].shape, args[0].shape),
}


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stacks: dict[int, list[int]] = {}  # thread id -> open spans
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called name."""
        stack = self._stacks.setdefault(threading.get_ident(), [])
        measure_peak = name in PEAK_SPANS
        if measure_peak:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        main = self._stacks.setdefault(threading.main_thread().ident, [])
        with self._lock:
            if stack:
                parent = stack[-1]
            elif stack is main:
                parent = None
                self.run += 1  # a root span starts a new run id
            else:
                # a worker thread (evaluate's per-case pool) works for the
                # span the main thread is in
                parent = main[-1] if main else None
            s = Span(name, time.perf_counter(), 0.0, parent, self.run)
            self.spans.append(s)
            idx = len(self.spans) - 1
        stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            stack.pop()
            s.end = time.perf_counter()
        if measure_peak:
            s.peak_bytes = tracemalloc.get_traced_memory()[1] - base
        if name in FLOPS:
            s.flops = FLOPS[name](args, out)
        return out

    def install(self, roots: dict) -> None:
        """Wrap the layers in WRAPPED plus roots, the benchmark's own entry
        points into the program, given in the same form."""
        tracemalloc.start()
        for name, (module, attr) in {**roots, **WRAPPED}.items():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        tracemalloc.stop()

    def self_time(self, idx: int, children: dict[int, list[int]]) -> float:
        """Duration minus the part of it that child spans cover."""
        s = self.spans[idx]
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(idx, ()), key=lambda i: self.spans[i].start):
            cs = self.spans[c]
            lo, hi = max(cs.start, cursor), min(cs.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (s.end - s.start) - covered

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                out.setdefault(s.parent, []).append(i)
        return out

    def write(self, path) -> None:
        """One JSON object per span, with self time, in start order."""
        kids = self.children()
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "run": s.run,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "self_s": self.self_time(i, kids),
                }
                if s.peak_bytes is not None:
                    rec["peak_bytes"] = s.peak_bytes
                if s.flops is not None:
                    rec["flops"] = s.flops
                fh.write(json.dumps(rec) + "\n")

    # ------------------------------------------------------------------
    # per-layer metrics

    def _median(self, name: str) -> float:
        d = [s.end - s.start for s in self.spans if s.name == name]
        return statistics.median(d) if d else 0.0

    def _peak_mb(self, name: str) -> float:
        peaks = [s.peak_bytes for s in self.spans if s.name == name]
        return max(peaks) / 1e6 if peaks else 0.0

    def _child_sum_median(self, parent: str, child: str, kids) -> float:
        """Median over parent spans of the summed durations of child spans."""
        sums = []
        for i, s in enumerate(self.spans):
            if s.name == parent:
                sums.append(
                    sum(
                        self.spans[c].end - self.spans[c].start
                        for c in kids.get(i, ())
                        if self.spans[c].name == child
                    )
                )
        return statistics.median(sums) if sums else 0.0

    def _gflop_rate(self, name: str) -> float:
        spans = [s for s in self.spans if s.name == name]
        busy = sum(s.end - s.start for s in spans)
        return sum(s.flops for s in spans) / busy / 1e9 if busy else 0.0

    def _passes_per_refine(self, kids) -> float:
        counts = [
            sum(1 for c in kids.get(i, ()) if self.spans[c].name == "crf.message_pass")
            for i, s in enumerate(self.spans)
            if s.name == "crf.refine"
        ]
        return statistics.median(counts) if counts else 0.0

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit).

        A layer the workload never calls reads 0.
        """
        kids = self.children()
        return {
            "crf.refine_s": (self._median("crf.refine"), "s"),
            "crf.message_passes": (self._passes_per_refine(kids), "count"),
            "crf.message_pass_s": (self._median("crf.message_pass"), "s"),
            "crf.message_pass_peak_mb": (self._peak_mb("crf.message_pass"), "MB"),
            "bilateral.filter_s": (self._median("bilateral.filter"), "s"),
            "evnet.forward_s": (self._median("evnet.forward"), "s"),
            "evnet.conv3d_forward_s": (
                self._child_sum_median("evnet.forward", "evnet.conv3d_forward", kids),
                "s",
            ),
            "evnet.conv3d_forward_gflop_s": (
                self._gflop_rate("evnet.conv3d_forward"),
                "GFLOP/s",
            ),
            "evnet.forward_peak_mb": (self._peak_mb("evnet.forward"), "MB"),
            "evnet.backward_s": (self._median("evnet.backward"), "s"),
            "evnet.conv3d_backward_s": (
                self._child_sum_median("evnet.backward", "evnet.conv3d_backward", kids),
                "s",
            ),
            "evnet.conv3d_backward_gflop_s": (
                self._gflop_rate("evnet.conv3d_backward"),
                "GFLOP/s",
            ),
            "evnet.backward_peak_mb": (self._peak_mb("evnet.backward"), "MB"),
            "evnet.sgd_step_s": (self._median("evnet.sgd_step"), "s"),
            "augment.rigid_s": (self._median("augment.rigid"), "s"),
            "augment.intensity_s": (self._median("augment.intensity"), "s"),
            "evnet.checkpoint_load_s": (self._median("evnet.checkpoint_load"), "s"),
            "nifti.read_s": (self._median("nifti.read"), "s"),
            "nifti.write_s": (self._median("nifti.write"), "s"),
            "pipeline.preprocess_s": (self._median("pipeline.preprocess"), "s"),
            "postproc.cleanup_s": (self._median("postproc.cleanup"), "s"),
            "volume.mask_to_native_s": (self._median("volume.mask_to_native"), "s"),
            "metrics.evaluate_case_s": (self._median("metrics.evaluate_case"), "s"),
        }
