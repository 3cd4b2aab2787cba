"""Spans around the public functions of each sumchase layer.

The tracer wraps a fixed list of coarse library functions from outside
the package: it rebinds every module attribute that refers to one of
them (``conditions`` and ``rearrange`` import ``partial_sum_vector`` by
name, ``cli`` imports ``run`` as ``run_chain``), records a span per
call, and restores the originals afterwards.  Fine-grained functions
such as ``term`` or ``vector_term`` are deliberately left alone: they
run millions of times per chain and wrapping them would swamp the
numbers being measured.

Work counts come from argument and result lengths at the same
boundaries, never from inside the program.  Spans are kept in memory as
``(name, start, end, parent, request)`` rows and written out at the end.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Sequence

from sumchase.errors import SearchError

LAYERS = ("series", "confinement", "rearrange", "conditions", "subspace",
          "fileio", "certcheck")

#: Name of the benchmark's own span around each request; its self time
#: is benchmark glue, not library work.
ROOT = "request"


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _size(value) -> int:
    return 0 if value is None else len(value)


def _psum(args, kwargs, result, exc):
    return {"series.psum_calls": 1,
            "series.psum_indices": _size(_arg(args, kwargs, 1, "indices"))}


def _vterms(args, kwargs, result, exc):
    return {"series.vterms_rows": _size(_arg(args, kwargs, 1, "ms"))}


def _select(args, kwargs, result, exc):
    return {"rearrange.select_calls": 1,
            "rearrange.select_picks": _size(result)}


def _lanes(args, kwargs, result, exc):
    return {"rearrange.lanes_calls": 1,
            "rearrange.lanes_rows": _size(_arg(args, kwargs, 1, "indices")),
            "rearrange.lanes_none": int(exc is None and result is None)}


def _order(args, kwargs, result, exc):
    return {"confinement.order_calls": 1,
            "confinement.order_vectors": _size(_arg(args, kwargs, 0,
                                                    "vectors")),
            "confinement.order_fail": int(isinstance(exc, SearchError))}


def _extend(args, kwargs, result, exc):
    return {"conditions.rounds": 1,
            "conditions.appended": 0 if result is None else result.appended}


def _leq(args, kwargs, result, exc):
    return {"conditions.attempts": 1}


def _growth(args, kwargs, result, exc):
    coeffs = _arg(args, kwargs, 1, "coeffs")
    truncation = _arg(args, kwargs, 2, "truncation")
    if truncation is None:
        truncation = 1 << 16  # subspace.DEFAULT_TRUNCATION
    return {"subspace.growth_calls": 1,
            "subspace.growth_terms": truncation * sum(1 for c in coeffs
                                                      if c != 0.0)}


#: (module, function, counter hook or None).  Span names are
#: ``module.function``.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("series", "partial_sum_vector", _psum),
    ("series", "vector_terms", _vterms),
    ("series", "term_array", None),
    ("series", "classical_sum", None),
    ("rearrange", "select_block_indices", _select),
    ("rearrange", "order_block_lanes", _lanes),
    ("rearrange", "plan_from_injection", None),
    ("rearrange", "riemann_rearrange", None),
    ("rearrange", "chase_target", None),
    ("rearrange", "cover_indices", None),
    ("rearrange", "order_block", None),
    ("confinement", "order_with_threshold", _order),
    ("confinement", "confine_with_anchor", None),
    ("confinement", "confine_zero_sum", None),
    ("confinement", "prefix_norms", None),
    ("conditions", "run", None),
    ("conditions", "extend_detail", _extend),
    ("conditions", "is_condition", None),
    ("conditions", "leq", _leq),
    ("fileio", "parse_spec_file", None),
    ("fileio", "write_certificate", None),
    ("fileio", "parse_certificate", None),
    ("fileio", "emit_trace", None),
    ("certcheck", "verify_certificate", None),
    ("certcheck", "verify_data", None),
    ("subspace", "growth_statistics", _growth),
    ("subspace", "k_space_basis", None),
    ("subspace", "r_space", None),
    ("subspace", "dependency_decompose", None),
    ("subspace", "sum_range", None),
)

#: Self-time metrics: metric name -> span name.
SELF_TIME_METRICS = {
    "series.psum_s": "series.partial_sum_vector",
    "series.vterms_s": "series.vector_terms",
    "series.term_array_s": "series.term_array",
    "series.classical_sum_s": "series.classical_sum",
    "rearrange.select_s": "rearrange.select_block_indices",
    "rearrange.lanes_s": "rearrange.order_block_lanes",
    "rearrange.plan_s": "rearrange.plan_from_injection",
    "rearrange.riemann_s": "rearrange.riemann_rearrange",
    "rearrange.chase_s": "rearrange.chase_target",
    "rearrange.cover_s": "rearrange.cover_indices",
    "confinement.order_s": "confinement.order_with_threshold",
    "confinement.anchor_s": "confinement.confine_with_anchor",
    "confinement.zero_sum_s": "confinement.confine_zero_sum",
    "conditions.extend_s": "conditions.extend_detail",
    "conditions.check_s": "conditions.is_condition",
    "conditions.leq_s": "conditions.leq",
    "fileio.cert_write_s": "fileio.write_certificate",
    "fileio.cert_parse_s": "fileio.parse_certificate",
    "fileio.trace_s": "fileio.emit_trace",
    "certcheck.verify_s": "certcheck.verify_data",
    "subspace.growth_s": "subspace.growth_statistics",
    "subspace.kbasis_s": "subspace.k_space_basis",
    "subspace.decompose_s": "subspace.dependency_decompose",
}

COUNT_METRICS = (
    "series.psum_calls", "series.psum_indices", "series.vterms_rows",
    "rearrange.select_calls", "rearrange.select_picks",
    "rearrange.lanes_calls", "rearrange.lanes_rows", "rearrange.lanes_none",
    "confinement.order_calls", "confinement.order_vectors",
    "confinement.order_fail",
    "conditions.rounds", "conditions.attempts", "conditions.appended",
    "subspace.growth_calls", "subspace.growth_terms",
)


def self_times(spans: Sequence[Sequence]) -> dict[str, float]:
    """Per span name, total duration minus the time covered by children.

    ``spans`` rows are ``(name, start, end, parent, ...)`` where
    ``parent`` is the row index of the enclosing span or -1.  Spans of
    one thread nest, so children never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for row in spans:
        parent = row[3]
        if parent >= 0:
            child_time[parent] += row[2] - row[1]
    out: dict[str, float] = {}
    for pos, row in enumerate(spans):
        own = (row[2] - row[1]) - child_time[pos]
        out[row[0]] = out.get(row[0], 0.0) + own
    return out


def layer_of(span_name: str) -> str | None:
    head = span_name.split(".", 1)[0]
    return head if head in LAYERS else None


class Tracer:
    """Records spans and counts while ``recording`` is true.

    ``install`` swaps the wrappers into every loaded ``sumchase`` module
    and ``restore`` puts the originals back.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.recording = False
        self._stack: list[int] = []
        self._request = -1
        self._swapped: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Callable | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                tracer._close(index)
                if hook is not None:
                    tracer.counts.update(hook(args, kwargs, result, exc))

        return wrapper

    def install(self) -> None:
        if self._swapped:
            raise RuntimeError("tracer is already installed")
        replace: dict[int, Callable] = {}
        for module_name, attr, hook in TARGETS:
            module = sys.modules[f"sumchase.{module_name}"]
            original = getattr(module, attr)
            replace[id(original)] = self._wrap(f"{module_name}.{attr}",
                                               original, hook)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sumchase"
                                      or mod_name.startswith("sumchase.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._swapped.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped.clear()

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self._request])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin(self, request: int) -> None:
        """Start recording one request under a root span."""
        self._request = request
        self.recording = True
        self._open(ROOT)

    def end(self) -> None:
        self._close(self._stack[-1])
        self.recording = False

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent,request\n")
            for name, start, end, parent, request in self.spans:
                handle.write(f"{name},{start!r},{end!r},{parent},"
                             f"{request}\n")


def layer_metrics(spans: Sequence[Sequence], counts: Counter,
                  requests: int) -> dict[str, float]:
    """Per-request layer numbers from a traced run.

    Self times are in seconds per request, counts per request.  Also
    returns each layer's total self time and ``tracing.coverage``, the
    share of traced request time spent inside library spans.
    """
    per = 1.0 / max(requests, 1)
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for metric, span in SELF_TIME_METRICS.items():
        out[metric] = selfs.get(span, 0.0) * per
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0) * per
    out["conditions.retries"] = (out["conditions.attempts"]
                                 - out["conditions.rounds"])
    layer_total = {layer: 0.0 for layer in LAYERS}
    for name, seconds in selfs.items():
        layer = layer_of(name)
        if layer is not None:
            layer_total[layer] += seconds
    for layer, seconds in layer_total.items():
        out[f"{layer}.self_s"] = seconds * per
    traced = sum(row[2] - row[1] for row in spans if row[0] == ROOT)
    out["tracing.coverage"] = (sum(layer_total.values()) / traced
                               if traced > 0.0 else 0.0)
    return out


def top_layer(metrics: dict[str, float]) -> str:
    """The layer with the largest self time."""
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
