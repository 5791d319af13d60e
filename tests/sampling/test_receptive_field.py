"""SampledSubgraph id maps and the exact-forward ReceptiveField extractor."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (Graph, SampledSubgraph, extract_receptive_field,
                         khop_in_nodes)


def _ring_with_spur(num_nodes=8):
    """Directed ring 0->1->...->0 plus a spur edge 0->4 and an isolate."""
    src = list(range(num_nodes)) + [0]
    dst = [(i + 1) % num_nodes for i in range(num_nodes)] + [4]
    edge_index = np.array([src, dst])
    x = np.arange((num_nodes + 1) * 2, dtype=float).reshape(num_nodes + 1, 2)
    return Graph(edge_index=edge_index, x=x)  # node num_nodes is isolated


class TestKhopInNodes:
    def test_matches_naive_bfs(self):
        g = _ring_with_spur()
        src, dst = g.edge_index
        for hops in (1, 2, 3):
            for t in range(g.num_nodes):
                visited = {t}
                frontier = {t}
                for _ in range(hops):
                    frontier = {int(s) for s, d in zip(src, dst)
                                if int(d) in frontier} - visited
                    visited |= frontier
                got = khop_in_nodes(g, [t], hops)
                assert sorted(visited) == got.tolist(), (t, hops)

    def test_union_of_targets(self):
        g = _ring_with_spur()
        single = np.union1d(khop_in_nodes(g, [1], 2), khop_in_nodes(g, [5], 2))
        assert (khop_in_nodes(g, [1, 5], 2) == single).all()

    def test_validation(self):
        g = _ring_with_spur()
        with pytest.raises(GraphError):
            khop_in_nodes(g, [], 2)
        with pytest.raises(GraphError):
            khop_in_nodes(g, [0], -1)
        with pytest.raises(GraphError):
            khop_in_nodes(g, [g.num_nodes], 2)
        assert khop_in_nodes(g, [3], 0).tolist() == [3]


class TestSampledSubgraphMaps:
    def test_id_maps_round_trip(self):
        g = _ring_with_spur()
        field = extract_receptive_field(g, [3], 2)
        local = field.local_index(field.node_ids)
        assert (field.to_global_nodes(local) == field.node_ids).all()
        assert field.graph.num_nodes == field.node_ids.shape[0]
        assert (field.graph.x == g.x[field.node_ids]).all()

    def test_disconnected_target_is_its_own_field(self):
        g = _ring_with_spur()
        isolate = g.num_nodes - 1
        field = extract_receptive_field(g, [isolate], 3)
        assert field.node_ids.tolist() == [isolate]
        assert field.graph.num_edges == 0
        assert int(field.local_targets[0]) == 0

    def test_boundary_node_identified(self):
        # 1-hop from node 2 of the ring reaches node 1, whose own in-edge
        # (0 -> 1) is outside the sample: node 1 is a boundary node.
        g = _ring_with_spur()
        field = extract_receptive_field(g, [2], 1)
        assert field.node_ids.tolist() == [1, 2]
        sub_src, sub_dst = field.graph.edge_index
        assert field.graph.num_edges == 1  # only 1 -> 2 survives
        assert field.to_global_nodes(sub_src[0]) == 1

    def test_local_index_rejects_unsampled_nodes(self):
        g = _ring_with_spur()
        field = extract_receptive_field(g, [2], 1)
        with pytest.raises(GraphError):
            field.local_index(6)

    def test_lift_edge_scores_round_trip(self):
        g = _ring_with_spur()
        field = extract_receptive_field(g, [3], 2)
        local = np.arange(1.0, field.num_edges + 1)
        lifted = field.lift_edge_scores(local)
        assert lifted.shape == (g.num_edges,)
        assert (lifted[field.edge_positions] == local).all()
        outside = np.setdiff1d(np.arange(g.num_edges), field.edge_positions)
        assert (lifted[outside] == 0).all()

    def test_legacy_tuple_unpack_warns(self):
        g = _ring_with_spur()
        field = extract_receptive_field(g, [3], 2)
        with pytest.warns(DeprecationWarning, match="SampledSubgraph"):
            node_ids, edge_mask = field
        assert (node_ids == field.node_ids).all()
        assert (edge_mask == field.edge_mask).all()


class TestFieldGraph:
    def test_matches_induced_subgraph(self):
        from repro.graph import induced_subgraph

        g = _ring_with_spur()
        g = Graph(edge_index=g.edge_index, x=g.x, y=np.arange(g.num_nodes),
                  train_mask=np.arange(g.num_nodes) % 2 == 0,
                  motif_edges={(1, 2), (2, 3), (6, 7)})
        field = extract_receptive_field(g, [3], 2)
        sub, node_ids, edge_mask = induced_subgraph(g, field.node_ids[::-1])
        assert (node_ids == field.node_ids).all()
        assert (edge_mask == field.edge_mask).all()
        assert (field.graph.edge_index == sub.edge_index).all()
        assert (field.graph.y == sub.y).all()
        assert (field.graph.train_mask == sub.train_mask).all()
        assert field.graph.motif_edges == sub.motif_edges == {(0, 1), (1, 2)}

    @pytest.mark.parametrize("sparse_rows, dense_rows", [(0.005, 0.3), (0.2, 0.2)])
    def test_seeded_twin_equals_own_twin(self, sparse_rows, dense_rows):
        from repro.sparse import feature_csr
        from repro.sparse.cache import memo_info

        rng = np.random.default_rng(3)
        n = 300
        # One row in ten is dense: a sparse parent's small fields then land
        # on either side of the density ceiling.
        row_density = np.where(np.arange(n) % 10 == 0, dense_rows, sparse_rows)
        x = rng.normal(size=(n, 50)) * (rng.random((n, 50)) < row_density[:, None])
        g = Graph(edge_index=rng.integers(0, n, size=(2, 600)), x=x)
        parent_sparse = feature_csr(g.x) is not None
        sides = set()
        for t in range(n):
            sub = extract_receptive_field(g, [t], 1).graph
            hits = memo_info()["feature"]["hits"]
            seeded = feature_csr(sub.x)
            # A sparse parent seeds every field: the lookup is a memo hit.
            assert memo_info()["feature"]["hits"] == hits + parent_sparse
            own = feature_csr(sub.x.copy())
            sides.add(own is None)
            if own is None:
                assert seeded is None
                continue
            for a, b in zip(seeded, own):
                assert (a.indptr == b.indptr).all()
                assert (a.indices == b.indices).all()
                assert (a.data == b.data).all()
        assert sides == ({True, False} if parent_sparse else {True})

    def test_inherited_twin_follows_parent(self):
        from repro.sparse import feature_csr, seed_feature_csr

        x = np.zeros((100, 4))
        x[0, :3] = 1.0  # the parent is sparse; rows 0-1 alone are not
        parent = Graph(edge_index=np.zeros((2, 0), dtype=np.int64), x=x)
        child = parent.x[[0, 1]]
        seed_feature_csr(child, parent.x, np.array([0, 1]))
        assert feature_csr(child) is None
        seed_feature_csr(child, parent.x, np.array([0, 1]), inherit=True)
        twin = feature_csr(child)
        assert twin is not None and (twin[0].toarray() == child).all()
        dense = Graph(edge_index=np.zeros((2, 0), dtype=np.int64), x=np.ones((6, 4)))
        child = np.zeros((2, 4))
        seed_feature_csr(child, dense.x, np.array([0, 1]), inherit=True)
        assert feature_csr(child) is None


class TestReceptiveFieldForwardParity:
    def test_forward_exact_at_target_rows(self, node_model, mini_ba_shapes):
        """The preloaded degree cache makes the local forward exact: the
        sampled prediction rows equal the full-graph rows bitwise."""
        from repro.sampling import ReceptiveField

        graph = mini_ba_shapes.graph
        full = node_model.predict_proba(graph)
        extractor = ReceptiveField(node_model.num_layers)
        targets = [0, 5, int(graph.num_nodes - 1)]
        field = extractor.extract(graph, targets)
        local = node_model.predict_proba(field.graph)
        for t, lt in zip(field.targets, field.local_targets):
            assert (local[int(lt)] == full[int(t)]).all()

    def test_structural_forward_needs_one_more_hop(self, node_model, mini_ba_shapes):
        """Edge removal recomputes degrees from the surviving edges, so the
        degree preload cannot help: a hop-L node missing its outside
        in-edges scales its messages into the cone wrongly. With L+1 hops
        every node within L hops keeps all its in-edges."""
        from repro.sampling import ReceptiveField

        graph = mini_ba_shapes.graph
        L = node_model.num_layers
        keep = np.random.default_rng(0).random((4, graph.num_edges)) < 0.7
        stack = np.ones((4, L, graph.num_edges + graph.num_nodes))
        stack[:, :, :graph.num_edges] = keep[:, None, :]
        full = node_model.predict_proba_batch(graph, stack, structural=True)

        def local_rows(field, target):
            sub = field.graph
            local = np.ones((4, L, sub.num_edges + sub.num_nodes))
            local[:, :, :sub.num_edges] = keep[:, None, field.edge_positions]
            probs = node_model.predict_proba_batch(sub, local, structural=True)
            return probs[:, int(field.local_index(target))]

        worst_l = 0.0
        for t in range(0, graph.num_nodes, 7):
            short = ReceptiveField(L).extract(graph, [t])
            worst_l = max(worst_l, np.abs(local_rows(short, t) - full[:, t]).max())
            wide = extract_receptive_field(graph, [t], L + 1)
            assert (local_rows(wide, t) == full[:, t]).all()
        assert worst_l > 1e-6

    def test_accepts_explain_targets(self, node_model, mini_ba_shapes):
        from repro.explain import ExplainTarget
        from repro.sampling import ReceptiveField

        graph = mini_ba_shapes.graph
        extractor = ReceptiveField(2)
        mixed = extractor.extract(graph, [ExplainTarget.node(3),
                                          ExplainTarget.link(1, 5), 7])
        assert sorted(int(t) for t in mixed.targets) == \
            sorted(set(int(t) for t in
                       extractor.extract(graph, [3, 1, 5, 7]).targets))
        with pytest.raises(GraphError):
            extractor.extract(graph, [ExplainTarget.graph(0)])

    def test_num_hops_validation(self):
        from repro.sampling import ReceptiveField

        with pytest.raises(GraphError):
            ReceptiveField(0)


class TestKhopSubgraphShim:
    def test_returns_sampled_subgraph(self):
        from repro.graph import k_hop_subgraph

        g = _ring_with_spur()
        field = k_hop_subgraph(g, 3, 2)
        assert isinstance(field, SampledSubgraph)
        assert (field.node_ids == khop_in_nodes(g, [3], 2)).all()
