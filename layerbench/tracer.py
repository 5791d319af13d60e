"""Span tracer and the from-outside hooks that feed it.

The benchmark never edits the library. It measures a layer by replacing
one of that layer's public functions with a timing wrapper for the
length of the traced pass, and it measures the sparse kernels through a
delegating backend registered with ``register_kernel`` and selected with
``use_backend``. Every replaced attribute is put back when the pass ends.

Spans nest per thread. An *operation* (``explain``, ``sweep``, ``fit``)
is the root of a span tree. When a span closes, its duration is charged
to its parent's child time, and its *self time* (duration minus child
time) is added to the operation's per-name totals. The root's self time
is the operation's ``unattributed`` remainder, so per operation the self
times plus the remainder add up to the operation's wall time exactly.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "OpRecord", "Hooks", "TIMED_BACKEND"]

#: Name under which the timing kernel backend is registered.
TIMED_BACKEND = "layerbench_timed"

_MISSING = object()


class OpRecord:
    """Per-operation span totals: self seconds, calls and items per name."""

    __slots__ = ("kind", "wall", "unattributed", "self_s", "calls", "items",
                 "values")

    def __init__(self, kind: str):
        self.kind = kind
        self.wall = 0.0
        self.unattributed = 0.0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        #: Free-form per-operation quantities (flow counts, kept-node
        #: fractions) recorded by the hooks.
        self.values: dict[str, float] = defaultdict(float)

    def accounting_error(self) -> float:
        """``|Σ self + unattributed − wall|`` in seconds."""
        return abs(sum(self.self_s.values()) + self.unattributed - self.wall)


class _Frame:
    __slots__ = ("name", "start", "child", "items")

    def __init__(self, name: str, start: float, items: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.items = items


class Tracer:
    """Thread-aware span recorder; spans outside an operation are dropped.

    Each thread keeps its own stack, so the serving daemon's numerics
    thread builds its operation trees independently of the event loop.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self.ops: list[OpRecord] = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- operations ------------------------------------------------------
    def begin_op(self, kind: str) -> OpRecord:
        stack = self._stack()
        if stack:
            raise RuntimeError(f"operation {kind!r} opened inside another")
        record = OpRecord(kind)
        stack.append((record, _Frame(kind, time.perf_counter(), 0)))
        return record

    def end_op(self) -> OpRecord:
        """Close the current thread's operation, including any open spans.

        Spans still open (an exception unwound past their wrapper's
        ``finally`` cannot happen, but a hook pair split across calls can
        be left half-open when the library raises between them) are
        closed at the same instant so the accounting stays exact.
        """
        stack = self._stack()
        now = time.perf_counter()
        while len(stack) > 1:
            self._close(stack, now)
        record, root = stack.pop()
        record.wall = now - root.start
        record.unattributed = record.wall - root.child
        with self._lock:
            self.ops.append(record)
        return record

    def abandon_op(self) -> None:
        """Drop the current thread's operation (it failed)."""
        self._stack().clear()

    def in_op(self) -> bool:
        return bool(self._stack())

    # -- spans -----------------------------------------------------------
    def open(self, name: str, items: int = 0) -> bool:
        stack = self._stack()
        if not stack:
            return False
        stack.append((stack[-1][0], _Frame(name, time.perf_counter(), items)))
        return True

    def close(self) -> None:
        self._close(self._stack(), time.perf_counter())

    @staticmethod
    def _close(stack: list, now: float) -> None:
        record, frame = stack.pop()
        duration = now - frame.start
        stack[-1][1].child += duration
        record.self_s[frame.name] += duration - frame.child
        record.calls[frame.name] += 1
        record.items[frame.name] += frame.items

    def note(self, name: str, value: float) -> None:
        """Add ``value`` to the current operation's ``values[name]``."""
        stack = self._stack()
        if stack:
            stack[-1][0].values[name] += value

    @contextmanager
    def span(self, name: str, items: int = 0):
        opened = self.open(name, items)
        try:
            yield
        finally:
            if opened:
                self.close()


def _items(op: str, args: tuple) -> int:
    """Work size of one kernel call: segment entries or CSR non-zeros."""
    if op == "spmm":
        return int(args[0].nnz)
    return int(args[0].num_items)


class Hooks:
    """Installs and removes the timing wrappers around library functions.

    ``install`` patches every target in :data:`METHODS` and
    :data:`FUNCTIONS` plus any ``extra`` ``(owner, attr, wrapper_factory)``
    triples (``owner`` a module name or a class), and registers the timing
    kernel backend; ``restore`` puts every original back.
    """

    #: ``(module, class, method, span name)``: class attributes wrapped as
    #: spans. Subclasses that do not override the method see the wrapper.
    METHODS = (
        ("repro.core.revelio", "Revelio", "explain_node", "core.revelio_self"),
        ("repro.explain.flowx", "FlowX", "explain_node", "explain.flowx_self"),
        ("repro.explain.base", "Explainer", "node_context", "explain.context"),
        ("repro.explain.base", "Explainer", "predicted_class", "explain.predict"),
        ("repro.autograd.tensor", "Tensor", "backward", "autograd.backward"),
        ("repro.autograd.optim", "Adam", "step", "autograd.adam"),
        ("repro.nn.models", "GNN", "forward_graph", "nn.forward"),
        ("repro.nn.models", "GNN", "forward_masked_batch", "nn.masked_batch"),
        ("repro.nn.models", "GNN", "predict_proba", "nn.predict"),
        ("repro.nn.train", "Trainer", "fit_node", "nn.fit_self"),
        ("repro.flows.enumeration", "FlowIndex", "aggregate_scores", "flows.aggregate"),
        ("repro.flows.cache", "FlowCache", "get_flow_index", "flows.lookup"),
        ("repro.sampling.receptive_field", "ReceptiveField", "extract",
         "sampling.extract"),
    )

    #: ``(module, function, span name)``: module globals the library calls
    #: through (``FlowCache`` resolves ``enumerate_flows`` at call time).
    FUNCTIONS = (
        ("repro.flows.cache", "enumerate_flows", "flows.enumerate"),
    )

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self.kernel_calls: dict[str, int] = defaultdict(int)

    # -- wrappers --------------------------------------------------------
    def _method_wrapper(self, fn, name: str):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if not tracer.open(name):
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if name == "flows.lookup":
                tracer.note("flows", result.num_flows)
                tracer.note("lookups", 1)
            elif name == "sampling.extract":
                tracer.note("kept_nodes", result.num_nodes)
                tracer.note("graph_nodes", args[1].num_nodes)
            return result

        return wrapper

    def _kernel_wrapper(self, op: str, base):
        tracer = self.tracer
        calls = self.kernel_calls
        name = f"sparse.{op}"

        def timed(*args):
            calls[op] += 1
            with tracer.span(name, _items(op, args)):
                return base(*args)

        return timed

    # -- install / restore ----------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def install(self, extra: tuple = ()) -> None:
        from repro.sparse import OPS, kernel, register_kernel

        for module, cls, method, name in self.METHODS:
            owner = getattr(importlib.import_module(module), cls)
            self._patch(owner, method,
                        self._method_wrapper(getattr(owner, method), name))
        for module, func, name in self.FUNCTIONS:
            mod = importlib.import_module(module)
            self._patch(mod, func, self._method_wrapper(getattr(mod, func), name))
        for owner, attr, factory in extra:
            if isinstance(owner, str):
                owner = importlib.import_module(owner)
            self._patch(owner, attr, factory(getattr(owner, attr)))
        # ``kernel(op)`` resolves against the backend active right now, so
        # the timed backend delegates to exactly what untraced runs use.
        for op in OPS:
            register_kernel(op, TIMED_BACKEND, self._kernel_wrapper(op, kernel(op)))

    def restore(self) -> list[str]:
        """Undo every patch; returns any attribute that did not come back."""
        leftovers = []
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
            if owner.__dict__.get(attr, _MISSING) is not original:
                leftovers.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return leftovers
