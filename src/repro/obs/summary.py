"""Trace summarization: per-method, per-stage time breakdown tables.

FlowX and Relevant Walk Search report per-phase cost (flow enumeration
vs. mask optimization vs. search); :func:`summarize_spans` produces the
same breakdown mechanically from any exported trace, and
``repro trace summarize PATH`` renders it on the command line.

:func:`cache_summary` is the other half of introspection: one snapshot
of every process-global cache (flow, explanation, context, sparse
memos, per-graph fingerprint memos), rendered by ``repro stats`` and served by the daemon's
``/caches`` and ``/metrics`` endpoints.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

from ..errors import EvaluationError
from .counters import PERF

__all__ = ["load_trace", "summarize_spans", "format_summary", "summarize_trace",
           "cache_summary", "format_cache_summary"]


def load_trace(path: str | Path) -> list[dict]:
    """Read span records from a trace JSONL file (bad lines skipped)."""
    path = Path(path)
    if not path.exists():
        raise EvaluationError(f"no such trace file: {path}")
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "name" in record:
                records.append(record)
    return records


def summarize_spans(records: list[dict]) -> dict:
    """Aggregate span records into a per-method, per-stage breakdown.

    Returns ``{method: {stage: {"count", "seconds", "mean_seconds"}}}``;
    spans without a ``method`` attribute are grouped under ``"-"``.
    """
    table: dict[str, dict[str, dict]] = {}
    for record in records:
        method = (record.get("attrs") or {}).get("method") or "-"
        stage = record["name"]
        cell = table.setdefault(method, {}).setdefault(
            stage, {"count": 0, "seconds": 0.0})
        cell["count"] += 1
        cell["seconds"] += float(record.get("seconds", 0.0))
    for stages in table.values():
        for cell in stages.values():
            cell["mean_seconds"] = cell["seconds"] / max(cell["count"], 1)
    return table


def format_summary(table: dict, processes: int | None = None) -> list[str]:
    """Render a breakdown table as aligned text rows.

    Stages are ordered by descending total seconds within each method;
    methods by descending total ``explain`` time (then name) so the
    expensive methods lead, as in the paper's runtime table.
    """
    rows = [f"{'method':<16} {'stage':<22} {'count':>7} {'seconds':>10} "
            f"{'mean_ms':>9} {'share':>7}"]

    def method_cost(item):
        stages = item[1]
        total = stages.get("explain", {}).get("seconds")
        if total is None:
            total = sum(c["seconds"] for c in stages.values())
        return -total

    for method, stages in sorted(table.items(), key=lambda i: (method_cost(i), i[0])):
        denom = stages.get("explain", {}).get("seconds") or max(
            (c["seconds"] for c in stages.values()), default=0.0)
        for stage, cell in sorted(stages.items(), key=lambda i: -i[1]["seconds"]):
            share = cell["seconds"] / denom if denom > 0 else 0.0
            rows.append(
                f"{method:<16} {stage:<22} {cell['count']:>7} "
                f"{cell['seconds']:>10.4f} {cell['mean_seconds'] * 1e3:>9.2f} "
                f"{share:>6.1%}"
            )
    if processes is not None:
        rows.append(f"(spans from {processes} process{'es' if processes != 1 else ''})")
    return rows


def _lru_info(cache) -> dict:
    """entries/maxsize/hits/misses for a bare :class:`LRUCache`."""
    return {
        "entries": len(cache),
        "maxsize": cache.maxsize,
        "hits": cache.hits,
        "misses": cache.misses,
    }


def cache_summary() -> dict:
    """One snapshot of every process-global cache in the tree.

    Returns ``{cache_name: {"entries", "hits", "misses", ...}}`` covering
    the flow cache, Revelio's whole-explanation memo, the L-hop context
    cache, the sparse-structure memos and the graphs' fingerprint memos
    (``graph_fingerprint``: misses are digests computed, hits are digests
    served without hashing). Imports lazily so reading stats never forces
    the numeric stack into processes that have not used it.
    """
    flows = importlib.import_module("repro.flows.cache")
    revelio = importlib.import_module("repro.core.revelio")
    base = importlib.import_module("repro.explain.base")
    sparse = importlib.import_module("repro.sparse.cache")
    summary = {
        "flow_cache": flows.FLOW_CACHE.cache_info(),
        "explanation_cache": _lru_info(revelio.EXPLANATION_CACHE),
        "context_cache": _lru_info(base.CONTEXT_CACHE),
    }
    for name, info in sparse.memo_info().items():
        summary[f"sparse_{name}"] = info
    summary["graph_fingerprint"] = {"hits": PERF.graph_fingerprint_hits,
                                    "misses": PERF.graph_fingerprints}
    return summary


def format_cache_summary(summary: dict | None = None) -> list[str]:
    """Render a :func:`cache_summary` snapshot as aligned text rows."""
    if summary is None:
        summary = cache_summary()
    rows = [f"{'cache':<24} {'entries':>8} {'maxsize':>8} {'hits':>8} "
            f"{'misses':>8} {'hit_rate':>9}"]
    for name, info in summary.items():
        hits, misses = info.get("hits", 0), info.get("misses", 0)
        total = hits + misses
        rate = f"{hits / total:>8.1%}" if total else f"{'-':>8}"
        entries = info.get("entries")
        maxsize = info.get("maxsize")
        rows.append(
            f"{name:<24} {entries if entries is not None else '-':>8} "
            f"{maxsize if maxsize is not None else '-':>8} "
            f"{hits:>8} {misses:>8} {rate:>9}"
        )
    return rows


def summarize_trace(path: str | Path) -> list[str]:
    """Load, aggregate and render one trace file (the CLI entry point)."""
    records = load_trace(path)
    if not records:
        raise EvaluationError(f"trace {path} contains no span records")
    processes = len({r.get("pid") for r in records if r.get("pid") is not None})
    return format_summary(summarize_spans(records), processes=processes or None)
