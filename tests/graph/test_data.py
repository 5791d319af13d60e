"""Graph container invariants and operations."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import Graph


def make_graph(**overrides):
    defaults = dict(
        edge_index=np.array([[0, 1, 2], [1, 2, 0]]),
        x=np.eye(3),
    )
    defaults.update(overrides)
    return Graph(**defaults)


class TestValidation:
    def test_basic_construction(self):
        g = make_graph()
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.num_features == 3

    def test_bad_edge_index_shape(self):
        with pytest.raises(GraphError):
            make_graph(edge_index=np.array([0, 1, 2]))

    def test_bad_x_shape(self):
        with pytest.raises(GraphError):
            make_graph(x=np.ones(3))

    def test_edge_out_of_range(self):
        with pytest.raises(GraphError):
            make_graph(edge_index=np.array([[0, 5], [1, 0]]))

    def test_negative_node_id(self):
        with pytest.raises(GraphError):
            make_graph(edge_index=np.array([[-1], [0]]))

    def test_num_nodes_mismatch(self):
        with pytest.raises(GraphError):
            make_graph(num_nodes=7)

    def test_mask_shape_checked(self):
        with pytest.raises(GraphError):
            make_graph(train_mask=np.ones(5, dtype=bool))

    def test_labels_coerced_to_int(self):
        g = make_graph(y=np.array([0.0, 1.0, 2.0]))
        assert g.y.dtype == np.int64

    def test_motif_edges_coerced_to_frozenset(self):
        g = make_graph(motif_edges={(0, 1), (1, 2)})
        assert isinstance(g.motif_edges, frozenset)

    def test_empty_graph(self):
        g = Graph(edge_index=np.zeros((2, 0), dtype=int), x=np.ones((4, 2)))
        assert g.num_edges == 0
        assert g.num_nodes == 4

    def test_scalar_label(self):
        g = make_graph(y=1)
        assert g.y == 1

    def test_validate_rechecks(self):
        g = make_graph()
        g.edge_index = np.array([[0, 9], [1, 0]])
        with pytest.raises(GraphError):
            g.validate()


class TestAccessors:
    def test_src_dst(self):
        g = make_graph()
        assert g.src.tolist() == [0, 1, 2]
        assert g.dst.tolist() == [1, 2, 0]

    def test_degrees(self):
        g = make_graph()
        assert g.in_degree().tolist() == [1, 1, 1]
        assert g.out_degree().tolist() == [1, 1, 1]

    def test_has_edge(self):
        g = make_graph()
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_edge_id_map_first_occurrence(self):
        g = Graph(edge_index=np.array([[0, 0], [1, 1]]), x=np.eye(2))
        assert g.edge_id_map()[(0, 1)] == 0

    def test_repr_mentions_sizes(self):
        assert "num_nodes=3" in repr(make_graph())


class TestWithEdges:
    def test_boolean_mask(self):
        g = make_graph()
        sub = g.with_edges(np.array([True, False, True]))
        assert sub.num_edges == 2
        assert sub.num_nodes == 3

    def test_index_array(self):
        g = make_graph()
        sub = g.with_edges(np.array([0, 2]))
        assert sub.src.tolist() == [0, 2]

    def test_wrong_mask_length(self):
        g = make_graph()
        with pytest.raises(GraphError):
            g.with_edges(np.array([True, False]))

    def test_preserves_metadata(self):
        g = make_graph(y=np.array([0, 1, 0]), motif_edges={(0, 1)})
        sub = g.with_edges(np.array([True, True, False]))
        assert sub.motif_edges == g.motif_edges
        assert np.array_equal(sub.y, g.y)

    def test_original_untouched(self):
        g = make_graph()
        g.with_edges(np.zeros(3, dtype=bool))
        assert g.num_edges == 3


class TestCopy:
    def test_deep_copy_arrays(self):
        mask = np.array([True, False, True])
        g = make_graph(y=np.array([0, 1, 2]), train_mask=mask,
                       val_mask=~mask, test_mask=mask)
        c = g.copy()
        for name in ("edge_index", "x", "y", "train_mask", "val_mask", "test_mask"):
            assert not np.shares_memory(getattr(c, name), getattr(g, name)), name

    def test_copy_masks(self):
        g = make_graph(train_mask=np.array([True, False, True]))
        c = g.copy()
        np.testing.assert_array_equal(c.train_mask, g.train_mask)
        assert not c.train_mask.flags.writeable
