"""Unified cache introspection: one snapshot of every process-global cache."""

import numpy as np

from repro.flows import FlowIndex
from repro.graph import Graph
from repro.obs import cache_summary, format_cache_summary


EXPECTED_CACHES = {"flow_cache", "explanation_cache", "context_cache",
                   "sparse_graph", "sparse_edge", "sparse_plan",
                   "sparse_feature", "graph_fingerprint"}


def test_summary_covers_every_cache():
    summary = cache_summary()
    assert EXPECTED_CACHES <= set(summary)
    for name, info in summary.items():
        assert {"hits", "misses"} <= set(info), name


def test_flow_cache_counters_move():
    from repro.flows.cache import FLOW_CACHE

    edge_index = np.array([[0, 1, 1, 2], [1, 0, 2, 1]])
    graph = Graph(edge_index=edge_index, x=np.eye(3))
    before = cache_summary()["flow_cache"]
    first = FLOW_CACHE.get_flow_index(graph, 2, target=0)
    second = FLOW_CACHE.get_flow_index(graph, 2, target=0)
    after = cache_summary()["flow_cache"]
    assert isinstance(first, FlowIndex) and second is first
    assert after["misses"] == before["misses"] + 1
    assert after["hits"] == before["hits"] + 1
    assert after["entries"] >= 1


def test_sparse_memo_counters_move():
    from repro.sparse.cache import sparse_cache

    edge_index = np.array([[0, 1, 2], [1, 2, 0]])
    graph = Graph(edge_index=edge_index, x=np.eye(3))
    before = cache_summary()["sparse_graph"]
    sparse_cache(graph)
    sparse_cache(graph)
    after = cache_summary()["sparse_graph"]
    assert after["misses"] == before["misses"] + 1
    assert after["hits"] >= before["hits"] + 1


def test_graph_fingerprint_counters_move():
    edge_index = np.array([[0, 1, 2], [1, 2, 0]])
    graph = Graph(edge_index=edge_index, x=np.eye(3))
    before = cache_summary()["graph_fingerprint"]
    for _ in range(3):
        graph.structure_digest()
    after = cache_summary()["graph_fingerprint"]
    assert after["misses"] == before["misses"] + 1
    assert after["hits"] == before["hits"] + 2


def test_format_cache_summary_renders_rows():
    rows = format_cache_summary()
    assert len(rows) == 1 + len(cache_summary())
    assert "cache" in rows[0] and "hit_rate" in rows[0]
    assert any("flow_cache" in row for row in rows)


def test_format_accepts_prebuilt_summary():
    rows = format_cache_summary({"demo": {"hits": 3, "misses": 1,
                                          "entries": 2, "maxsize": 8}})
    assert len(rows) == 2
    assert "75.0%" in rows[1]
