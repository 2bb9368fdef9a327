"""Spans around dfslab's public functions, recorded from outside the package,
and the arithmetic that turns them into per-layer numbers.

A Tracer replaces every public module-level function, public method and
dataclass ``__post_init__`` of each layer module with a wrapper that records
one span per call: name, layer, start, end, parent span and op id.  A
function is replaced in every dfslab namespace that holds it (``nullspace``
lives in ``opcore`` but is also imported into ``symmetry`` and
``spectral``), so calls that go through an imported name are seen too.
Spans stay in memory until ``write_jsonl``.

This module imports nothing from numpy or dfslab, so the arithmetic can be
tested on synthetic span trees.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "opcore",
    "states",
    "spectral",
    "symmetry",
    "duality",
    "fock",
    "dynamics",
    "nctorus",
    "reporting",
    "acceptance",
    "cli",
)

# Layer of the benchmark's own root span around each op.
HARNESS = "harness"


class Span:
    __slots__ = ("id", "name", "layer", "parent", "op", "start", "end", "error")

    def __init__(self, id, name, layer, parent, op, start, end=0.0, error=False):
        self.id = id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = start
        self.end = end
        self.error = error

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans for calls into the layers while installed.

    ``on_result`` hooks, keyed by span name, receive (tracer, args, kwargs,
    result) after a call returns; they feed counters such as solver
    iterations that are read off the public return values.
    """

    def __init__(self, on_result: dict | None = None):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.op: int | None = None
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []
        self._on_result = dict(on_result or {})

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, parent, self.op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, fn, name: str, layer: str):
        tracer = self
        hook = self._on_result.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                tracer.close(span)
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return wrapper

    def install(self, package: str = "dfslab") -> None:
        """Wrap the public callables of every layer module of ``package``."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self.wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                new = replacements.get(id(obj))
                if new is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, new)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__post_init__":
                label = "init"
            elif attr.startswith("_"):
                continue
            else:
                label = attr
            name = f"{layer}.{cls.__name__}.{label}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, name, layer))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, name, layer)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _ancestors(span: Span, by_id: dict):
    parent = span.parent
    while parent is not None:
        up = by_id[parent]
        yield up
        parent = up.parent


def exclusive_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    out = {s.id: s.dur for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.dur
    return out


def layer_totals(spans, layers=LAYERS + (HARNESS,)) -> dict[str, dict]:
    """Per layer: calls and busy time of its top-level entries, self time,
    and entries that raised.

    An entry is a span with no enclosing span of the same layer.  Self time
    sums the exclusive time of every span of the layer, so a layer re-entered
    through another one (opcore -> states -> opcore) keeps its inner work and
    the self times of all layers add up to the wall time of the root spans.
    """
    by_id = {s.id: s for s in spans}
    excl = exclusive_times(spans)
    out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0} for layer in layers}
    for s in spans:
        row = out.setdefault(s.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
        row["self_s"] += excl[s.id]
        if any(a.layer == s.layer for a in _ancestors(s, by_id)):
            continue
        row["calls"] += 1
        row["busy_s"] += s.dur
        row["errors"] += int(s.error)
    return out


def function_totals(spans) -> dict[str, dict]:
    """Per span name: every call counted, inclusive time of the outermost
    calls only (a function nested inside itself is not counted twice)."""
    by_id = {s.id: s for s in spans}
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0})
        row["calls"] += 1
        if not any(a.name == s.name for a in _ancestors(s, by_id)):
            row["s"] += s.dur
    return out


def tail(times) -> tuple[float, float] | None:
    """Highest nearest-rank percentile with at least ten values above it.

    Returns (percentile, value), or None for fewer than 11 values.  With n
    sorted values the answer is the (n - 10)-th smallest, which sits at
    percentile 100 * (n - 10) / n.
    """
    n = len(times)
    if n < 11:
        return None
    ordered = sorted(times)
    rank = n - 10
    return 100.0 * rank / n, ordered[rank - 1]

