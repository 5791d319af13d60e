"""Batched receptive-field extraction with exact-forward guarantees.

:class:`ReceptiveField` wraps :func:`~repro.graph.sampled.extract_receptive_field`
with the one correction that makes an *unmasked forward on the sampled
subgraph* agree with the full graph at every target row: GCN's symmetric
renormalization reads node degrees, and nodes on the boundary of the
extracted cone (distance exactly L from every target) have lost in-edges.
A boundary node's *output* never reaches a target within L layers, but
its degree does: ``D̂^{-1/2}`` of the source scales every message it
sends into the cone. Presetting the sampled graph's
:class:`~repro.sparse.cache.GraphSparseCache` with the full graph's
``deg_inv_sqrt`` sliced to the kept nodes makes every kept row's
coefficients identical to the dense path, so the parity claim needs no
per-architecture reasoning: any conv that reads the cache's degree
vectors sees exactly the numbers the full graph would produce.

The preload covers unmasked forwards only. A structural (edge-removal)
forward recomputes degrees from the surviving edges, so the boundary
nodes' missing in-edges show again; such forwards need an (L+1)-hop
field, in which every node within L hops keeps all of its in-edges
(:func:`repro.eval.fidelity.fidelity_curve` sweeps on one).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import GraphError
from ..explain.target import ExplainTarget
from ..graph import Graph, SampledSubgraph, extract_receptive_field
from ..obs import span
from ..obs.names import SPAN_SAMPLED_EXTRACT
from ..sparse import sparse_cache

__all__ = ["ReceptiveField"]


class ReceptiveField:
    """Extractor of L-hop in-subgraphs whose local forward is exact.

    Parameters
    ----------
    num_hops:
        Extraction depth; use the model's ``num_layers`` — an L-layer
        network's prediction at a node is a function of its L-hop
        incoming neighborhood only.
    """

    def __init__(self, num_hops: int):
        if num_hops < 1:
            raise GraphError(f"num_hops must be >= 1, got {num_hops}")
        self.num_hops = int(num_hops)

    def extract(self, graph: Graph,
                targets: Sequence[ExplainTarget | int]) -> SampledSubgraph:
        """Extract the union receptive field of ``targets``.

        ``targets`` mixes node ids and :class:`ExplainTarget` values
        freely; link targets contribute both endpoints. Returns a
        :class:`~repro.graph.sampled.SampledSubgraph` whose ``.graph``
        carries a sparse cache preloaded with the full graph's degree
        normalization, so a model forward over it reproduces the
        full-graph output at every target row to machine precision.
        """
        nodes: list[int] = []
        for t in targets:
            if isinstance(t, ExplainTarget):
                if t.kind == "graph":
                    raise GraphError(f"{t} has no receptive field to extract")
                nodes.extend(int(i) for i in t.ids)
            else:
                nodes.append(int(t))
        with span(SPAN_SAMPLED_EXTRACT, num_hops=self.num_hops) as sp:
            field = extract_receptive_field(graph, nodes, self.num_hops)
            subgraph = field.graph
            # dst_plan.counts is the augmented in-degree, so the slice of
            # the full-graph vector is exactly D̂^{-1/2} of each kept node
            # as the dense path sees it.
            full = sparse_cache(graph)
            local = sparse_cache(subgraph)
            local._deg_inv_sqrt = np.ascontiguousarray(
                full.deg_inv_sqrt[field.node_ids])
            if sp is not None:
                sp.set(num_targets=len(field.targets),
                       num_nodes=field.num_nodes,
                       num_edges=field.num_edges)
        return field

    def __repr__(self) -> str:
        return f"ReceptiveField(num_hops={self.num_hops})"
