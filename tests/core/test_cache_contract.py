"""The content-keyed caches never change an answer.

Random sequences of graph builds, ``with_edges``, field reassignment,
predictions and Revelio explanations run twice: once with the context,
flow and explanation caches on (and never cleared), once with all three
disabled. Every output must match exactly.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Revelio
from repro.core.revelio import clear_explanation_cache, explanation_cache_disabled
from repro.errors import ReproError
from repro.explain import ExplainTarget
from repro.explain.base import clear_context_cache, context_cache_disabled
from repro.flows import flow_cache_disabled, invalidate
from repro.graph import Graph, coalesce_edges
from repro.nn import build_model

NUM_FEATURES = 3
MODEL = build_model("gcn", "node", NUM_FEATURES, 2, hidden=4, num_layers=2, rng=0)
MODEL.eval()


def random_edges(rng, n: int) -> np.ndarray:
    pairs = rng.integers(0, n, size=(2, 2 * n))
    pairs = pairs[:, pairs[0] != pairs[1]]
    return coalesce_edges(np.concatenate([pairs, pairs[::-1]], axis=1))


def random_graph(seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    return Graph(edge_index=random_edges(rng, n), x=rng.normal(size=(n, NUM_FEATURES)))


operation = st.one_of(
    st.tuples(st.just("build"), st.integers(0, 10_000)),
    st.tuples(st.just("with_edges"), st.integers(0, 10_000)),
    st.tuples(st.just("assign_x"), st.integers(0, 10_000)),
    st.tuples(st.just("assign_edges"), st.integers(0, 10_000)),
    st.tuples(st.just("predict"), st.just(0)),
    # A small space, so repeats (the cache-hit paths) are common.
    st.tuples(st.just("explain"), st.integers(0, 5)),
)


def replay(operations) -> list:
    """Run ``operations`` from scratch; return every observable output."""
    graph, outputs = random_graph(0), []
    for name, seed in operations:
        rng = np.random.default_rng(seed)
        if name == "build":
            graph = random_graph(seed)
        elif name == "with_edges":
            graph = graph.with_edges(rng.random(graph.num_edges) < 0.7)
        elif name == "assign_x":
            graph.x = graph.x + rng.normal(size=graph.x.shape)
        elif name == "assign_edges":
            graph.edge_index = random_edges(rng, graph.num_nodes)
        elif name == "predict":
            outputs.append(MODEL.predict_proba(graph))
        else:
            node = seed % graph.num_nodes
            mode = ("factual", "counterfactual")[seed // 3 % 2]
            try:
                e = Revelio(MODEL, epochs=3, seed=0).explain(
                    graph, ExplainTarget.node(node), mode=mode)
                outputs.append((e.edge_scores, e.flow_scores, e.meta["num_flows"]))
            except ReproError as exc:
                outputs.append(type(exc).__name__)
    return outputs


def assert_same(a, b) -> None:
    assert type(a) is type(b)
    if isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


@settings(max_examples=60, deadline=None)
@given(st.lists(operation, min_size=1, max_size=10))
@example([("explain", 0), ("assign_x", 1), ("explain", 0)])
@example([("explain", 1), ("assign_edges", 1), ("explain", 1), ("predict", 0)])
@example([("explain", 2), ("with_edges", 3), ("explain", 2), ("build", 0), ("explain", 2)])
def test_cached_run_matches_uncached_run(operations):
    clear_explanation_cache()
    clear_context_cache()
    invalidate(None)
    cached = replay(operations)
    cached_again = replay(operations)  # every cache warm
    with context_cache_disabled(), flow_cache_disabled(), explanation_cache_disabled():
        uncached = replay(operations)
    assert len(cached) == len(uncached)
    for got, again, want in zip(cached, cached_again, uncached):
        assert_same(got, want)
        assert_same(again, want)
