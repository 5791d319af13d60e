"""Fidelity metrics (paper Eqs. 10 and 11).

``Fidelity− = mean_i [ P(y_i | G_i) − P(y_i | G_i^(s)) ]`` — probability
drop when keeping only the explanatory edges (smaller = better factual
explanation; negative values mean removing noise *raised* the predicted
probability).

``Fidelity+ = mean_i [ P(y_i | G_i) − P(y_i | G_i^(s̄)) ]`` — probability
drop after removing the explanatory edges (larger = better counterfactual
explanation).

``y_i`` is the model's predicted class on the original instance (the class
each explainer was asked to explain).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EvaluationError
from ..explain.base import Explanation
from ..explain.target import ExplainTarget, as_node_id
from ..graph import Graph, SampledSubgraph, khop_in_nodes
from ..nn.models import GNN
from ..obs import span
from ..obs.names import SPAN_FIDELITY_SWEEP
from ..sparse import seed_feature_csr
from .sparsity import (
    explanatory_keep_mask,
    explanatory_subgraph,
    unexplanatory_keep_mask,
    unexplanatory_subgraph,
)

__all__ = ["Instance", "class_probability", "fidelity_minus", "fidelity_plus",
           "fidelity_curve"]


@dataclass
class Instance:
    """One evaluation instance: a graph and what to explain in it.

    ``target`` is an :class:`~repro.explain.target.ExplainTarget`
    (``ExplainTarget.node(i)`` for node tasks, ``None`` for whole-graph
    instances); legacy records carrying bare node ids keep working one
    release — consumers resolve through
    :func:`~repro.explain.target.as_node_id`.
    """

    graph: Graph
    target: ExplainTarget | int | None = None


def class_probability(model: GNN, graph: Graph, class_idx: int, *,
                      target: ExplainTarget | int | None = None) -> float:
    """``P_Φ(class | graph)`` at the target node / for the graph."""
    proba = model.predict_proba(graph)
    node = as_node_id(target)
    row = proba[node] if node is not None else proba[0]
    return float(row[class_idx])


def _check_instances(instances: list[Instance],
                     explanations: list[Explanation]) -> None:
    """Reject inputs that would otherwise yield a silently wrong fidelity."""
    if len(instances) != len(explanations):
        raise EvaluationError(
            f"{len(instances)} instances but {len(explanations)} explanations"
        )
    if not instances:
        raise EvaluationError("fidelity requires at least one instance")
    for i, (inst, exp) in enumerate(zip(instances, explanations)):
        num_edges = inst.graph.num_edges
        shape = np.shape(exp.edge_scores)
        if shape != (num_edges,):
            raise EvaluationError(
                f"instance {i}: edge_scores has shape {shape}, expected "
                f"({num_edges},) — one score per edge of the instance graph")
        candidates = exp.context_edge_positions
        if candidates is not None:
            candidates = np.asarray(candidates)
            if candidates.size and (candidates.min() < 0
                                    or candidates.max() >= num_edges):
                raise EvaluationError(
                    f"instance {i}: candidate edge positions must lie in "
                    f"[0, {num_edges}), got range [{candidates.min()}, "
                    f"{candidates.max()}]")
        node = as_node_id(inst.target)
        if node is not None and not 0 <= node < inst.graph.num_nodes:
            raise EvaluationError(
                f"instance {i}: target node {node} out of range for a graph "
                f"with {inst.graph.num_nodes} nodes")


def _fidelity(model: GNN, instances: list[Instance], explanations: list[Explanation],
              sparsity: float, *, remove_explanatory: bool) -> float:
    _check_instances(instances, explanations)
    drops = []
    for inst, exp in zip(instances, explanations):
        class_idx = exp.predicted_class
        p_orig = class_probability(model, inst.graph, class_idx, target=inst.target)
        builder = unexplanatory_subgraph if remove_explanatory else explanatory_subgraph
        perturbed = builder(inst.graph, exp.edge_scores, sparsity,
                            candidate_edges=exp.context_edge_positions)
        p_pert = class_probability(model, perturbed, class_idx, target=inst.target)
        drops.append(p_orig - p_pert)
    return float(np.mean(drops))


def fidelity_minus(model: GNN, instances: list[Instance],
                   explanations: list[Explanation], sparsity: float) -> float:
    """Eq. (10): mean probability drop keeping only explanatory edges."""
    return _fidelity(model, instances, explanations, sparsity, remove_explanatory=False)


def fidelity_plus(model: GNN, instances: list[Instance],
                  explanations: list[Explanation], sparsity: float) -> float:
    """Eq. (11): mean probability drop after removing explanatory edges."""
    return _fidelity(model, instances, explanations, sparsity, remove_explanatory=True)


#: Largest receptive field, as a fraction of the instance graph's nodes,
#: that a batched sweep evaluates locally. Extracting the field and
#: compiling its sparse structures costs about one masked forward over the
#: field, so a field holding more than half the graph is slower than the
#: whole graph with its warm cache (BA-Shapes x0.15: a 56-of-105-node
#: field sweeps in ~2.9 ms locally against ~2.3 ms whole).
LOCAL_SWEEP_MAX_FRACTION = 0.5


def _sweep_graph(model: GNN, inst: Instance) -> tuple[Graph, np.ndarray | None, int]:
    """The graph an instance's batched sweep runs on.

    Returns ``(graph, edge_positions, row)``: ``edge_positions`` maps the
    graph's edges to the instance graph's (``None`` when they are the
    same edges) and ``row`` is the output row holding the target.

    A node target is swept on its (L+1)-hop receptive field. Structural
    masks recompute GCN degrees from the surviving edges, and a hop-L
    node's degree scales its messages into the L-hop cone, so every node
    within L hops must keep all of its in-edges; one more hop guarantees
    that, and the outer ring's own degrees never reach the target.
    """
    graph = inst.graph
    node = as_node_id(inst.target)
    if node is None or model.task != "node":
        return graph, None, 0 if node is None else node
    nodes = khop_in_nodes(graph, [node], model.num_layers + 1)
    if nodes.size > LOCAL_SWEEP_MAX_FRACTION * graph.num_nodes:
        return graph, None, node
    if nodes.size == 1:
        # numpy sends one-row matrix products to gemv, whose summation
        # order differs from gemm's; a second node (outside the field, so
        # it cannot reach the target) keeps every product a gemm.
        nodes = np.union1d(nodes, [1 if node == 0 else 0])
    field = SampledSubgraph.induced(graph, nodes)
    # The whole-graph forward chose a sparse or dense first-layer product
    # by the whole graph's feature density; the field must choose alike.
    seed_feature_csr(field.graph.x, graph.x, field.node_ids, inherit=True)
    return field.graph, field.edge_positions, int(field.local_index(node))


def fidelity_curve(model: GNN, instances: list[Instance],
                   explanations: list[Explanation], sparsities: list[float],
                   *, metric: str = "minus", batched: bool = True) -> dict[float, float]:
    """Fidelity over a sparsity grid — one line of Fig. 3 / Fig. 4.

    The batched path visits each instance once: ``p_orig`` is computed a
    single time and the whole sparsity grid is evaluated in one structural
    masked forward (binary retention masks are exact edge removal). A
    node target's prediction depends only on its L-hop cone, so node
    instances are evaluated on the target's (L+1)-hop receptive field
    rather than the whole graph (the extra hop keeps every cone node's
    masked degree exact); the keep masks are built over the whole graph
    and sliced to the field's edges. A field holding more than
    :data:`LOCAL_SWEEP_MAX_FRACTION` of the graph, and every graph or
    link target, runs on the whole instance graph. The result is bitwise
    identical to the whole-graph sweep wherever the BLAS computes a GEMM
    row independently of the matrix's row count (true of every benchmark
    target; see DESIGN.md §13). The sweep span records the summed
    ``field_nodes`` / ``field_edges`` the forwards ran on.

    ``batched=False`` keeps the original one-pruned-graph-per-(instance,
    sparsity) sweep over whole graphs — the independent oracle; the two
    agree to float tolerance.
    """
    if metric not in ("minus", "plus"):
        raise EvaluationError(f"metric must be 'minus' or 'plus', got {metric!r}")
    if len(sparsities) == 0:
        raise EvaluationError("fidelity_curve needs at least one sparsity level")
    _check_instances(instances, explanations)
    with span(SPAN_FIDELITY_SWEEP, metric=metric, batched=batched,
              num_instances=len(instances)) as sp:
        if not batched:
            fn = fidelity_minus if metric == "minus" else fidelity_plus
            return {float(s): fn(model, instances, explanations, s) for s in sparsities}

        mask_fn = unexplanatory_keep_mask if metric == "plus" else explanatory_keep_mask
        num_layers = model.num_layers
        drops = np.zeros(len(sparsities))
        field_nodes = field_edges = 0
        for inst, exp in zip(instances, explanations):
            graph, positions, row = _sweep_graph(model, inst)
            class_idx = exp.predicted_class
            p_orig = float(model.predict_proba(graph)[row, class_idx])
            E, N = graph.num_edges, graph.num_nodes
            mask_stack = np.ones((len(sparsities), num_layers, E + N))
            for j, s in enumerate(sparsities):
                keep = mask_fn(inst.graph.num_edges, exp.edge_scores, float(s),
                               candidate_edges=exp.context_edge_positions)
                mask_stack[j, :, :E] = keep if positions is None else keep[positions]
            probs = model.predict_proba_batch(graph, mask_stack, structural=True)
            drops += p_orig - probs[:, row, class_idx]
            field_nodes += N
            field_edges += E
        if sp is not None:
            sp.set(field_nodes=field_nodes, field_edges=field_edges)
        return {float(s): float(d / len(instances)) for s, d in zip(sparsities, drops)}
