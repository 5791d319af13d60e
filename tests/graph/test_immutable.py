"""Read-only graph arrays and the once-per-graph content fingerprint."""

import copy
import hashlib
import pickle

import numpy as np
import pytest

from repro.flows import graph_fingerprint
from repro.graph import Graph
from repro.nn import build_model
from repro.obs.counters import PERF

ARRAY_FIELDS = ("edge_index", "x", "y", "train_mask", "val_mask", "test_mask")


def make_graph(**overrides):
    mask = np.array([True, False, True])
    fields = dict(edge_index=np.array([[0, 1, 2], [1, 2, 0]]),
                  x=np.arange(6, dtype=float).reshape(3, 2), y=np.array([0, 1, 0]),
                  train_mask=mask, val_mask=~mask, test_mask=mask)
    fields.update(overrides)
    return Graph(**fields)


class TestFrozen:
    def test_every_array_field_read_only(self):
        g = make_graph()
        for name in ARRAY_FIELDS:
            assert not getattr(g, name).flags.writeable, name

    @pytest.mark.parametrize("name", ARRAY_FIELDS)
    def test_in_place_write_raises(self, name):
        g = make_graph()
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = 0

    def test_input_frozen_in_place_not_copied(self):
        x = np.ones((3, 2))
        g = make_graph(x=x)
        assert g.x is x and not x.flags.writeable

    def test_frozen_input_reused(self):
        x = np.ones((3, 2))
        x.flags.writeable = False
        assert make_graph(x=x).x is x

    def test_assigned_array_frozen_and_coerced(self):
        g = make_graph()
        g.x = np.zeros((3, 2), dtype=np.float32)
        g.edge_index = np.array([[0, 1], [1, 0]], dtype=np.int32)
        assert g.x.dtype == np.float64 and not g.x.flags.writeable
        assert g.edge_index.dtype == np.int64 and not g.edge_index.flags.writeable

    def test_scalar_graph_label_untouched(self):
        assert make_graph(y=1).y == 1

    def test_with_edges_shares_features(self):
        g = make_graph()
        child = g.with_edges(np.array([True, False, True]))
        assert child.x is g.x
        assert not child.edge_index.flags.writeable

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda g: pickle.loads(pickle.dumps(g))])
    def test_clones_refrozen(self, clone):
        g = make_graph()
        g.structure_digest()
        c = clone(g)
        for name in ARRAY_FIELDS:
            assert not getattr(c, name).flags.writeable, name
        assert c.structure_digest() == g.structure_digest()

    def test_in_place_edge_edit_cannot_leave_a_stale_prediction(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        graph = Graph(edge_index=np.array([[0, 1], [1, 2]]), x=x)
        model = build_model("gcn", "node", 4, 2, hidden=4, rng=0)
        before = model.predict_proba(graph)
        with pytest.raises(ValueError):
            graph.edge_index[0, 0] = 2
        graph.edge_index = np.array([[2, 1], [1, 2]])
        after = model.predict_proba(graph)
        fresh = model.predict_proba(Graph(edge_index=np.array([[2, 1], [1, 2]]), x=x))
        np.testing.assert_array_equal(after, fresh)
        assert not np.allclose(after, before)


class TestFingerprint:
    def test_structure_digest_is_graph_fingerprint(self):
        g = make_graph()
        expected = hashlib.sha1(b"3" + g.edge_index.tobytes()).hexdigest()
        assert g.structure_digest() == graph_fingerprint(g) == expected

    def test_each_digest_hashed_once(self):
        g = make_graph()
        before = PERF.graph_fingerprints
        for _ in range(3):
            g.structure_digest()
            g.feature_digest()
        assert PERF.graph_fingerprints - before == 2

    def test_reassignment_recomputes(self):
        g = make_graph()
        structure, features = g.structure_digest(), g.feature_digest()
        g.x = g.x + 1.0
        assert g.feature_digest() != features
        assert g.structure_digest() == structure
        g.edge_index = g.edge_index[:, :2]
        assert g.structure_digest() != structure

    def test_equal_content_equal_digests(self):
        a, b = make_graph(), make_graph()
        assert a.structure_digest() == b.structure_digest()
        assert a.feature_digest() == b.feature_digest()

    def test_feature_digest_covers_shape(self):
        edges = np.array([[0], [1]])
        a = Graph(edge_index=edges, x=np.zeros((3, 4)))
        b = Graph(edge_index=edges, x=np.zeros((6, 2)))  # same bytes
        assert a.feature_digest() != b.feature_digest()

    def test_with_edges_inherits_feature_digest(self):
        g = make_graph()
        digest = g.feature_digest()
        before = PERF.graph_fingerprints
        child = g.with_edges(np.array([True, False, True]))
        assert child.feature_digest() == digest
        assert PERF.graph_fingerprints == before

    def test_unfingerprinted_graph_hashes_nothing(self):
        g = make_graph()
        before = PERF.graph_fingerprints
        g.with_edges(np.array([True, True, False]))
        g.copy()
        assert PERF.graph_fingerprints == before
