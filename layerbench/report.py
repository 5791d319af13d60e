"""Turn traced operation records into the per-layer metrics.

Names follow ``<op>.<layer>.<measure>``. ``*_ms`` values are self times
(a span minus its direct children), taken as the median over the
operations of that kind; a layer an operation never entered counts as 0
for it. Counts (``*_calls``, ``*_items``, ``flows``) are medians too.
Fractions are ratios of totals over the whole traced pass.
"""

from __future__ import annotations

from .common import p50
from .tracer import OpRecord

__all__ = ["SPANS", "KERNEL_OPS", "REQUEST_METRICS", "per_layer_metrics",
           "accounting_error_ms", "check_trace"]

#: Largest tolerated gap between an operation's wall time and the sum of
#: its self times plus the remainder (float rounding only).
ACCOUNTING_TOL_MS = 1e-3

#: Span names reported per operation kind, as ``<layer>.<measure>``.
SPANS = {
    "explain": ("core.revelio_self", "explain.flowx_self", "explain.context",
                "explain.predict", "autograd.backward", "autograd.adam",
                "nn.forward", "nn.masked_batch", "nn.predict",
                "flows.aggregate", "flows.lookup", "flows.enumerate",
                "sampling.extract"),
    "sweep": ("eval.self", "nn.predict", "nn.forward", "nn.masked_batch"),
    "fit": ("nn.fit_self", "nn.forward", "nn.predict", "autograd.backward",
            "autograd.adam"),
}
KERNEL_OPS = ("scatter_add", "segment_max", "spmm", "gather_scatter")
#: Serving split of each ``/explain`` round trip, after ``request.``.
REQUEST_METRICS = ("serve.queue_ms", "serve.compute_ms", "serve.wire_ms",
                   "serve.batch_size", "serve.dedup_frac", "unattributed_ms",
                   "wall_ms")


def _median(records: list[OpRecord], get) -> float:
    return p50([get(r) for r in records]) if records else 0.0


def per_layer_metrics(records: list[OpRecord]) -> dict[str, float]:
    """Metrics for the ``explain``, ``sweep`` and ``fit`` operations."""
    out: dict[str, float] = {}
    for kind, spans in SPANS.items():
        ops = [r for r in records if r.kind == kind]
        for name in spans:
            out[f"{kind}.{name}_ms"] = _median(ops, lambda r: r.self_s.get(name, 0.0) * 1e3)
        for op in KERNEL_OPS:
            name = f"sparse.{op}"
            out[f"{kind}.{name}_ms"] = _median(ops, lambda r: r.self_s.get(name, 0.0) * 1e3)
            out[f"{kind}.{name}_calls"] = _median(ops, lambda r: r.calls.get(name, 0))
            out[f"{kind}.{name}_items"] = _median(ops, lambda r: r.items.get(name, 0))
        out[f"{kind}.unattributed_ms"] = _median(ops, lambda r: r.unattributed * 1e3)
        out[f"{kind}.wall_ms"] = _median(ops, lambda r: r.wall * 1e3)

    explains = [r for r in records if r.kind == "explain"]
    lookups = sum(r.values.get("lookups", 0) for r in explains)
    enumerations = sum(r.calls.get("flows.enumerate", 0) for r in explains)
    kept = sum(r.values.get("kept_nodes", 0) for r in explains)
    total = sum(r.values.get("graph_nodes", 0) for r in explains)
    out["explain.flows.flows"] = _median(explains, lambda r: r.values.get("flows", 0))
    out["explain.flows.cache_hit_frac"] = (lookups - enumerations) / lookups if lookups else 0.0
    out["explain.sampling.kept_node_frac"] = kept / total if total else 0.0
    return out


def accounting_error_ms(records: list[OpRecord]) -> float:
    """Largest ``|Σ self + unattributed − wall|`` over all operations."""
    return max((r.accounting_error() for r in records), default=0.0) * 1e3


def check_trace(ops, leftovers: list[str], backend: str, accounting_ms: float,
                traced_counts: dict, untraced_counts: dict) -> None:
    """The traced pass left nothing patched, accounted for all its time,
    and did exactly the work of the untraced pass."""
    from repro.sparse import current_backend

    ops.check("trace", f"hooks not restored: {leftovers}, backend "
                       f"{current_backend()}" if leftovers or current_backend() != backend
              else None)
    ops.check("trace", f"self times miss the wall time by {accounting_ms} ms"
              if accounting_ms > ACCOUNTING_TOL_MS else None)
    ops.check("identity", f"traced pass counts {traced_counts} != untraced {untraced_counts}"
              if traced_counts != untraced_counts else None)
