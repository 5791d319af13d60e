"""The batched fidelity sweep on the target's (L+1)-hop receptive field.

``reference_curve`` is the whole-graph batched sweep: one
``predict_proba`` and one structural masked forward over the entire
instance graph per instance. The local sweep must reproduce it bitwise
for GCN, within 1e-12 for every conv, and agree with the independent
``batched=False`` oracle within the batched-equivalence tolerance.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.eval import fidelity
from repro.eval.fidelity import Instance, class_probability, fidelity_curve
from repro.eval.sparsity import explanatory_keep_mask, unexplanatory_keep_mask
from repro.explain import ExplainTarget
from repro.explain.target import as_node_id
from repro.explain.base import Explanation
from repro.graph import Graph, coalesce_edges, extract_receptive_field
from repro.nn import build_model
from repro.obs import MemorySink, tracing

GRID = [0.0, 0.3, 0.5, 0.7, 0.9]
EQ_TOL = 1e-8


def reference_curve(model, instances, explanations, sparsities, metric):
    """The whole-graph batched sweep the local one must reproduce."""
    mask_fn = unexplanatory_keep_mask if metric == "plus" else explanatory_keep_mask
    drops = np.zeros(len(sparsities))
    for inst, exp in zip(instances, explanations):
        class_idx = exp.predicted_class
        p_orig = class_probability(model, inst.graph, class_idx, target=inst.target)
        E, N = inst.graph.num_edges, inst.graph.num_nodes
        mask_stack = np.ones((len(sparsities), model.num_layers, E + N))
        for j, s in enumerate(sparsities):
            keep = mask_fn(E, exp.edge_scores, float(s),
                           candidate_edges=exp.context_edge_positions)
            mask_stack[j, :, :E] = keep.astype(np.float64)
        probs = model.predict_proba_batch(inst.graph, mask_stack, structural=True)
        node = as_node_id(inst.target)
        row = node if node is not None else 0
        drops += p_orig - probs[:, row, class_idx]
    return {float(s): float(d / len(instances)) for s, d in zip(sparsities, drops)}


def random_graph(rng, num_features: int, density: float) -> Graph:
    """Random symmetric graph with a hub and a few isolated nodes."""
    n = int(rng.integers(2, 30))
    pairs = rng.integers(0, n, size=(2, int(rng.integers(0, 2 * n + 1))))
    hub = int(rng.integers(0, n))
    spokes = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
    pairs = np.concatenate([pairs, np.stack([spokes, np.full_like(spokes, hub)])], axis=1)
    isolated = rng.choice(n, size=int(rng.integers(0, max(1, n // 4))), replace=False)
    pairs = pairs[:, (pairs[0] != pairs[1]) & ~np.isin(pairs, isolated).any(axis=0)]
    x = rng.normal(size=(n, num_features)) * (rng.random((n, num_features)) < density)
    return Graph(edge_index=coalesce_edges(np.concatenate([pairs, pairs[::-1]], axis=1)),
                 x=x)


def random_explanation(rng, model, graph, node, with_context: bool) -> Explanation:
    context = extract_receptive_field(graph, [node], model.num_layers).edge_positions \
        if with_context else None
    # Rounded scores so ties (and the stable tie-break) are exercised.
    scores = np.round(rng.random(graph.num_edges), 1)
    predicted = int(model.predict_proba(graph)[node].argmax())
    return Explanation(edge_scores=scores, predicted_class=predicted, method="random",
                       target=node, context_edge_positions=context)


@settings(max_examples=80, deadline=None)
# A field sparser than the feature-density ceiling inside a denser graph,
# and a one-node field (a target without in-edges).
@example(seed=805, conv="gcn", metric="minus", with_context=False, num_layers=1,
         density=0.02, max_fraction=0.5)
@example(seed=152, conv="gcn", metric="minus", with_context=False, num_layers=1,
         density=0.5, max_fraction=0.5)
@given(seed=st.integers(0, 2**31 - 1), conv=st.sampled_from(["gcn", "gin", "gat"]),
       metric=st.sampled_from(["minus", "plus"]), with_context=st.booleans(),
       num_layers=st.integers(1, 3), density=st.sampled_from([0.02, 0.5]),
       max_fraction=st.sampled_from([fidelity.LOCAL_SWEEP_MAX_FRACTION, 1.0]))
def test_local_sweep_matches_whole_graph(seed, conv, metric, with_context,
                                         num_layers, density, max_fraction):
    # max_fraction=1.0 sweeps every node target locally, whole-graph
    # fields included. The model's shapes (8 hidden, 3 classes, 40
    # features) are ones for which the BLAS builds tested compute each GEMM
    # row independently of the row count, which bitwise equality needs.
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 40, density)
    model = build_model(conv, "node", 40, 3, hidden=8, num_layers=num_layers, rng=seed)
    model.eval()
    nodes = rng.choice(graph.num_nodes, size=min(3, graph.num_nodes), replace=False)
    instances = [Instance(graph, ExplainTarget.node(int(v))) for v in nodes]
    explanations = [random_explanation(rng, model, graph, int(v), with_context)
                    for v in nodes]

    with mock.patch.object(fidelity, "LOCAL_SWEEP_MAX_FRACTION", max_fraction):
        local = fidelity_curve(model, instances, explanations, GRID, metric=metric)
    reference = reference_curve(model, instances, explanations, GRID, metric)
    serial = fidelity_curve(model, instances, explanations, GRID, metric=metric,
                            batched=False)
    assert set(local) == set(reference) == set(serial)
    for s in GRID:
        if conv == "gcn":
            assert local[s] == reference[s]
        assert abs(local[s] - reference[s]) <= 1e-12
        assert abs(local[s] - serial[s]) < EQ_TOL


def _sweep_attrs(model, instances, explanations):
    sink = MemorySink()
    with tracing(sink):
        curve = fidelity_curve(model, instances, explanations, GRID)
    (record,) = [r for r in sink.records if r["name"] == "fidelity_sweep"]
    return curve, record["attrs"]


class TestSweepGraph:
    def test_node_target_runs_on_field(self, node_model, mini_ba_shapes):
        graph = mini_ba_shapes.graph
        fields = [extract_receptive_field(graph, [v], node_model.num_layers + 1)
                  for v in range(graph.num_nodes)]
        field = min(fields, key=lambda f: f.num_nodes)
        node = field.targets[0]
        assert 1 < field.num_nodes <= fidelity.LOCAL_SWEEP_MAX_FRACTION * graph.num_nodes
        exp = random_explanation(np.random.default_rng(0), node_model, graph, node, True)
        instances = [Instance(graph, ExplainTarget.node(node))]
        curve, attrs = _sweep_attrs(node_model, instances, [exp])
        assert attrs["field_nodes"] == field.num_nodes
        assert attrs["field_edges"] == field.num_edges
        assert curve == reference_curve(node_model, instances, [exp], GRID, "minus")

    def test_graph_target_runs_on_whole_graph(self, graph_model, mini_mutag):
        graphs = mini_mutag.graphs[:2]
        instances = [Instance(g) for g in graphs]
        exps = [Explanation(edge_scores=np.random.default_rng(i).random(g.num_edges),
                            predicted_class=int(graph_model.predict(g)[0]), method="r")
                for i, g in enumerate(graphs)]
        curve, attrs = _sweep_attrs(graph_model, instances, exps)
        assert attrs["field_nodes"] == sum(g.num_nodes for g in graphs)
        assert attrs["field_edges"] == sum(g.num_edges for g in graphs)
        assert curve == reference_curve(graph_model, instances, exps, GRID, "minus")

    def test_link_target_runs_on_whole_graph(self, node_model, mini_ba_shapes):
        graph = mini_ba_shapes.graph
        u, v = (int(i) for i in graph.edge_index[:, 0])
        exp = Explanation(edge_scores=np.random.default_rng(0).random(graph.num_edges),
                          predicted_class=0, method="r")
        instances = [Instance(graph, ExplainTarget.link(u, v))]
        curve, attrs = _sweep_attrs(node_model, instances, [exp])
        assert attrs["field_nodes"] == graph.num_nodes
        assert attrs["field_edges"] == graph.num_edges
        assert curve == reference_curve(node_model, instances, [exp], GRID, "minus")

    def test_large_field_runs_on_whole_graph(self, node_model, mini_ba_shapes):
        graph = mini_ba_shapes.graph
        fields = [extract_receptive_field(graph, [v], node_model.num_layers + 1)
                  for v in range(graph.num_nodes)]
        node = next(f.targets[0] for f in fields
                    if graph.num_nodes > f.num_nodes
                    > fidelity.LOCAL_SWEEP_MAX_FRACTION * graph.num_nodes)
        exp = random_explanation(np.random.default_rng(0), node_model, graph, node, True)
        instances = [Instance(graph, ExplainTarget.node(node))]
        curve, attrs = _sweep_attrs(node_model, instances, [exp])
        assert attrs["field_nodes"] == graph.num_nodes
        assert curve == reference_curve(node_model, instances, [exp], GRID, "minus")

    def test_isolated_target_field_keeps_two_nodes(self, node_model, mini_ba_shapes):
        base = mini_ba_shapes.graph
        # Node 0 loses its in-edges: its receptive field is itself alone.
        graph = base.with_edges(base.edge_index[1] != 0)
        exp = random_explanation(np.random.default_rng(0), node_model, graph, 0, True)
        instances = [Instance(graph, ExplainTarget.node(0))]
        curve, attrs = _sweep_attrs(node_model, instances, [exp])
        assert attrs["field_nodes"] == 2
        assert curve == reference_curve(node_model, instances, [exp], GRID, "minus")

    def test_whole_graph_field_reuses_graph(self, node_model, mini_ba_shapes):
        # A 4-cycle: every node is within L+1 hops of node 0.
        graph = Graph(edge_index=np.array([[0, 1, 2, 3, 1, 2, 3, 0],
                                           [1, 2, 3, 0, 0, 1, 2, 3]]),
                      x=np.random.default_rng(0).random((4, mini_ba_shapes.graph.num_features)))
        exp = random_explanation(np.random.default_rng(1), node_model, graph, 0, False)
        instances = [Instance(graph, ExplainTarget.node(0))]
        curve, attrs = _sweep_attrs(node_model, instances, [exp])
        assert attrs["field_nodes"] == graph.num_nodes
        assert curve == reference_curve(node_model, instances, [exp], GRID, "minus")


class TestInputValidation:
    @pytest.fixture
    def setup(self, node_model, mini_ba_shapes, good_motif_node):
        graph = mini_ba_shapes.graph
        exp = random_explanation(np.random.default_rng(0), node_model, graph,
                                 good_motif_node, True)
        return node_model, [Instance(graph, ExplainTarget.node(good_motif_node))], exp

    @pytest.mark.parametrize("batched", [True, False])
    def test_misshaped_edge_scores(self, setup, batched):
        model, instances, exp = setup
        exp.edge_scores = exp.edge_scores[:-5]
        with pytest.raises(EvaluationError, match="edge_scores has shape"):
            fidelity_curve(model, instances, [exp], GRID, batched=batched)

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("bad", [-1, 10**6])
    def test_out_of_range_candidates(self, setup, batched, bad):
        model, instances, exp = setup
        exp.context_edge_positions = np.append(exp.context_edge_positions, bad)
        with pytest.raises(EvaluationError, match="candidate edge positions"):
            fidelity_curve(model, instances, [exp], GRID, batched=batched)

    @pytest.mark.parametrize("batched", [True, False])
    def test_empty_grid(self, setup, batched):
        model, instances, exp = setup
        with pytest.raises(EvaluationError, match="at least one sparsity"):
            fidelity_curve(model, instances, [exp], [], batched=batched)

    @pytest.mark.parametrize("batched", [True, False])
    def test_out_of_range_target(self, setup, batched):
        model, instances, exp = setup
        graph = instances[0].graph
        instances = [Instance(graph, ExplainTarget.node(graph.num_nodes))]
        with pytest.raises(EvaluationError, match="out of range"):
            fidelity_curve(model, instances, [exp], GRID, batched=batched)
