"""Outside-in tracer for the fbmhaar layers.

For the length of one traced request, every binding of each wrapped
function in the ``fbmhaar`` module namespaces -- and in their dict-valued
globals that dispatch to them, such as the coefficient-block table -- is
replaced by a wrapper that records a span.  Nothing inside the package is
edited, so the spans survive rewrites of a layer's internals as long as its
public functions keep their names.

Spans go on a per-thread stack.  A span opened on a thread with an empty
stack (a worker thread of a pool) records the innermost open span of the
request's own thread as its causal parent.  Self time is a span's duration
minus the time covered by its children on the same thread, so the self
times of one thread's spans add up to the time that thread spent inside
traced functions.  All spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# Wrapped functions: "<module>:<name pattern>" -> layer.
TARGETS = {
    "fbmhaar.noise:draw_bundle": "noise",
    "fbmhaar.noise:stream_normals": "noise",
    "fbmhaar.haar:dyadic_arrays": "haar",
    "fbmhaar.coefficients:coeff_matrix": "coefficients",
    "fbmhaar.coefficients:coeff_vector": "coefficients",
    "fbmhaar.coefficients:f1_block": "coefficients",
    "fbmhaar.coefficients:f2_block": "coefficients",
    "fbmhaar.coefficients:g_block": "coefficients",
    "fbmhaar.expansion:generate_path": "expansion",
    "fbmhaar.expansion:generate_ensemble": "expansion",
    "fbmhaar.oracle:quad_coefficient": "oracle",
    "fbmhaar.oracle:cholesky_sample": "oracle",
    "fbmhaar.validation:run_*_campaign": "validation",
    "fbmhaar.cli:main": "cli",
}

BLOCKS = ("fbmhaar.coefficients:f1_block", "fbmhaar.coefficients:f2_block",
          "fbmhaar.coefficients:g_block")


def _out_bytes(argv):
    argv = list(argv or ())
    if "--out" not in argv or argv[argv.index("--out") + 1] == "-":
        return {"bytes_out": 0}
    return {"bytes_out": os.path.getsize(argv[argv.index("--out") + 1])}


def _block_counts(ts, n_lo, n_hi):
    entries = len(ts) * (n_hi - n_lo + 1)
    return {"entries": entries, "block_bytes": 8 * entries}


def _terms(values, n_terms):
    # multiply-adds of the expansion: 3 series over 0..N less g_0, plus c_H
    return {"terms": values * (3 * n_terms + 2)}


# Work counted at the boundary from the arguments:
# function -> (parameter names, counts from those arguments).
COUNTERS = {
    "fbmhaar.noise:stream_normals": (("count",),
                                     lambda count: {"variates": count}),
    **{key: (("ts", "n_lo", "n_hi"), _block_counts) for key in BLOCKS},
    "fbmhaar.expansion:generate_path": (
        ("times", "config"),
        lambda times, config: _terms(len(times), config.n_terms)),
    "fbmhaar.expansion:generate_ensemble": (
        ("times", "config", "n_paths"),
        lambda times, config, n_paths: _terms(len(times) * n_paths,
                                              config.n_terms)),
    "fbmhaar.cli:main": (("argv",), _out_bytes),
}


def _argument_getters(fn, names):
    """Fast accessors for the named parameters of ``fn``; ValueError when
    the signature no longer has one of them."""
    params = inspect.signature(fn).parameters
    order = list(params)
    getters = []
    for name in names:
        pos, default = order.index(name), params[name].default

        def get(args, kwargs, pos=pos, name=name, default=default):
            return args[pos] if pos < len(args) else kwargs.get(name, default)
        getters.append(get)
    return getters


@dataclass
class Span:
    key: str
    layer: str
    thread: int
    start: float
    parent: "Span | None"
    request: int
    end: float = 0.0
    counts: dict | None = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span (keyed by ``id``): duration minus the duration of
    its children on the same thread, which nest inside it."""
    out = {id(s): s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent.thread == s.thread:
            out[id(s.parent)] -= s.duration
    return out


def request_accounts(spans: list[Span], wall: float, root_thread: int) -> dict:
    """Time accounts of one request.

    ``untraced_s`` is the request's wall time outside any root span of the
    request thread.  By construction ``root_self_s + untraced_s`` equals the
    wall time; ``thread_s`` adds the self time spent on other threads, and
    is the denominator of every layer share.
    """
    selfs = self_times(spans)
    roots = sum(s.duration for s in spans
                if s.thread == root_thread and
                (s.parent is None or s.parent.thread != root_thread))
    root_self = sum(selfs[id(s)] for s in spans if s.thread == root_thread)
    untraced = wall - roots
    return {"wall_s": wall, "root_self_s": root_self, "untraced_s": untraced,
            "thread_s": sum(selfs.values()) + untraced, "self": selfs}


class Tracer:
    """Installs wrappers around the targets for one request at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.requests: dict[int, tuple[float, float, int]] = {}
        self.missing: list[str] = []
        self.count_errors: set[str] = set()
        self._stacks: dict[int, list[Span]] = {}
        self._request = -1
        self._root_thread = 0
        self._undo: list[tuple[dict, str, object]] = []
        self._wrappers: dict[int, object] = {}
        for pattern, layer in TARGETS.items():
            found = self._resolve(pattern)
            if not found:
                self.missing.append(pattern)
            for key, fn in found:
                self._wrappers[id(fn)] = (fn, self._wrap(key, layer, fn))

    @staticmethod
    def _resolve(pattern: str) -> list[tuple[str, object]]:
        module_name, name_pattern = pattern.split(":")
        module = sys.modules.get(module_name)
        if module is None:
            return []
        return [(f"{module_name}:{name}", value)
                for name, value in sorted(vars(module).items())
                if fnmatch.fnmatchcase(name, name_pattern)
                and inspect.isfunction(value)
                and value.__module__ == module_name]

    def _wrap(self, key: str, layer: str, fn):
        names, counter = COUNTERS.get(key, ((), None))
        try:
            getters = _argument_getters(fn, names)
        except ValueError:
            counter = None
            self.count_errors.add(key)
        spans = self.spans
        stacks = self._stacks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            thread = threading.get_ident()
            stack = stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                top = stacks.get(self._root_thread, [])[-1:]
                parent = top[0] if top else None
            span = Span(key, layer, thread, 0.0, parent, self._request)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(*(g(args, kwargs) for g in getters))
                except (TypeError, AttributeError, OSError, IndexError):
                    span.counts = None
                    self.count_errors.add(key)
            return result

        return wrapper

    def install(self, request: int) -> None:
        """Start a traced request and wrap every binding of the targets."""
        self._request = request
        self._root_thread = threading.get_ident()
        by_id = self._wrappers
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "fbmhaar"
                                      or name.startswith("fbmhaar.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if attr.startswith("__"):
                    continue
                if id(value) in by_id and by_id[id(value)][0] is value:
                    self._replace(namespace, attr, value)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in by_id and by_id[id(v)][0] is v:
                            self._replace(value, k, v)
        self.requests[request] = (time.perf_counter(), 0.0, self._root_thread)

    def _replace(self, container: dict, key, original) -> None:
        container[key] = self._wrappers[id(original)][1]
        self._undo.append((container, key, original))

    def uninstall(self) -> None:
        """Restore every replaced binding and close the request."""
        start, _, thread = self.requests[self._request]
        self.requests[self._request] = (start, time.perf_counter(), thread)
        while self._undo:
            container, key, original = self._undo.pop()
            container[key] = original
        self._stacks.clear()

    def request_spans(self, request: int) -> list[Span]:
        return [s for s in self.spans if s.request == request]

    def dump(self) -> dict:
        """Every span as a row, parents as row indices, for writing out."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return {
            "columns": ["request", "function", "layer", "thread", "start",
                        "end", "parent", "counts"],
            "spans": [[s.request, s.key, s.layer, s.thread, s.start, s.end,
                       index.get(id(s.parent), -1), s.counts]
                      for s in self.spans],
            "requests": {str(k): list(v) for k, v in self.requests.items()},
            "missing": self.missing,
        }


MB = 2.0**20

# Per-layer metrics derived from spans -> the targets they need.
SPAN_METRICS = {
    "noise.calls": ("fbmhaar.noise:draw_bundle", "fbmhaar.noise:stream_normals"),
    "noise.variates": ("fbmhaar.noise:stream_normals",),
    "noise.self_s": ("fbmhaar.noise:draw_bundle", "fbmhaar.noise:stream_normals"),
    "noise.share": ("fbmhaar.noise:draw_bundle", "fbmhaar.noise:stream_normals"),
    "coefficients.f1.self_s": ("fbmhaar.coefficients:f1_block",),
    "coefficients.f2.self_s": ("fbmhaar.coefficients:f2_block",),
    "coefficients.g.self_s": ("fbmhaar.coefficients:g_block",),
    "coefficients.entries": BLOCKS,
    "coefficients.entries_per_s": BLOCKS,
    "coefficients.share": ("fbmhaar.coefficients:coeff_matrix",
                           "fbmhaar.coefficients:coeff_vector", *BLOCKS),
    "coefficients.block_mb": BLOCKS,
    "haar.self_s": ("fbmhaar.haar:dyadic_arrays",),
    "expansion.self_s": ("fbmhaar.expansion:generate_path",
                         "fbmhaar.expansion:generate_ensemble"),
    "expansion.terms": ("fbmhaar.expansion:generate_path",
                        "fbmhaar.expansion:generate_ensemble"),
    "expansion.terms_per_s": ("fbmhaar.expansion:generate_path",
                              "fbmhaar.expansion:generate_ensemble"),
    "expansion.share": ("fbmhaar.expansion:generate_path",
                        "fbmhaar.expansion:generate_ensemble"),
    "oracle.quad.calls": ("fbmhaar.oracle:quad_coefficient",),
    "oracle.quad.self_s": ("fbmhaar.oracle:quad_coefficient",),
    "oracle.cholesky.self_s": ("fbmhaar.oracle:cholesky_sample",),
    "validation.self_s": ("fbmhaar.validation:run_*_campaign",),
    "cli.self_s": ("fbmhaar.cli:main",),
    "cli.bytes_out": ("fbmhaar.cli:main",),
}


def span_metrics(tracer: Tracer, requests: list[int]) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced request (means over ``requests``;
    rates and shares as ratios of sums, block size as a maximum), and the
    notes explaining any metric reported as None."""
    sums: dict[str, float] = {}
    block_max = 0

    def add(name, value):
        sums[name] = sums.get(name, 0.0) + value

    for r in requests:
        spans = tracer.request_spans(r)
        start, end, thread = tracer.requests[r]
        acc = request_accounts(spans, end - start, thread)
        if abs(acc["root_self_s"] + acc["untraced_s"] - acc["wall_s"]) > 1e-6:
            raise RuntimeError(f"self times of request {r} do not add up to "
                               f"its wall time: {acc}")
        selfs = acc["self"]
        add("thread_s", acc["thread_s"])
        for s in spans:
            own = selfs[id(s)]
            name = s.key.split(":")[1]
            add(f"{s.layer}.self_s", own)
            add(f"{name}.self_s", own)
            add(f"{name}.calls", 1)
            add(f"{name}.inclusive_s", s.duration)
            if s.layer == "noise" and (s.parent is None
                                       or s.parent.layer != "noise"):
                add("noise.calls", 1)
            for count, value in (s.counts or {}).items():
                add(f"{name}.{count}", value)
            if s.key in BLOCKS and s.counts:
                block_max = max(block_max, s.counts["block_bytes"])

    def total(name):
        return sums.get(name, 0.0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    n = max(len(requests), 1)
    entries = sum(total(f"{b}_block.entries") for b in ("f1", "f2", "g"))
    block_s = sum(total(f"{b}_block.inclusive_s") for b in ("f1", "f2", "g"))
    terms = total("generate_path.terms") + total("generate_ensemble.terms")
    thread_s = total("thread_s")
    values = {
        "noise.calls": total("noise.calls") / n,
        "noise.variates": total("stream_normals.variates") / n,
        "noise.self_s": total("noise.self_s") / n,
        "noise.share": ratio(total("noise.self_s"), thread_s),
        "coefficients.f1.self_s": total("f1_block.self_s") / n,
        "coefficients.f2.self_s": total("f2_block.self_s") / n,
        "coefficients.g.self_s": total("g_block.self_s") / n,
        "coefficients.entries": entries / n,
        "coefficients.entries_per_s": ratio(entries, block_s),
        "coefficients.share": ratio(total("coefficients.self_s"), thread_s),
        "coefficients.block_mb": block_max / MB,
        "haar.self_s": total("haar.self_s") / n,
        "expansion.self_s": total("expansion.self_s") / n,
        "expansion.terms": terms / n,
        "expansion.terms_per_s": ratio(terms, total("expansion.self_s")),
        "expansion.share": ratio(total("expansion.self_s"), thread_s),
        "oracle.quad.calls": total("quad_coefficient.calls") / n,
        "oracle.quad.self_s": total("quad_coefficient.self_s") / n,
        "oracle.cholesky.self_s": total("cholesky_sample.self_s") / n,
        "validation.self_s": total("validation.self_s") / n,
        "cli.self_s": total("cli.self_s") / n,
        "cli.bytes_out": total("main.bytes_out") / n,
    }
    notes = []
    for metric, needs in SPAN_METRICS.items():
        gone = [t for t in needs if t in tracer.missing]
        broken = [t for t in needs if t in tracer.count_errors]
        if gone or broken:
            values[metric] = None
            notes.append(f"{metric}: " + "; ".join(
                [f"{t} no longer exists" for t in gone]
                + [f"{t} arguments no longer give its counts" for t in broken]))
    return values, notes
