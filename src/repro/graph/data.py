"""Graph container used across the library.

A :class:`Graph` stores a directed graph in COO format (``edge_index`` of
shape ``(2, E)``), node features, labels and optional train/val/test masks —
the same layout as PyTorch Geometric's ``Data`` object, which the paper's
implementation builds on.

Edges are directed and, following the paper's experimental setup, contain no
self-loops at the data level (GNN layers add their own self-contributions;
see :mod:`repro.nn.message_passing`).

Graphs are immutable: every array field is read-only from construction on,
so an in-place write raises ``ValueError`` instead of leaving a cache keyed
on the old contents stale. New data means a new graph, or assigning a new
array to the field (which is frozen in turn). Because the contents of a
given array object can no longer change, each graph fingerprints itself
once — :meth:`Graph.structure_digest` / :meth:`Graph.feature_digest` — and
every content-keyed cache in the library keys on those digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import GraphError
from ..obs.counters import PERF

__all__ = ["Graph"]

#: Array fields and the dtype an array assigned to each is coerced to.
_ARRAY_FIELDS = {
    "edge_index": np.int64, "x": np.float64, "y": np.int64,
    "train_mask": np.bool_, "val_mask": np.bool_, "test_mask": np.bool_,
}


def _frozen(array: np.ndarray, dtype) -> np.ndarray:
    """``array`` as ``dtype``, marked read-only; never copies a frozen input."""
    array = np.asarray(array, dtype=dtype)
    if array.flags.writeable:
        array.flags.writeable = False
    return array


def _sha1(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part)
    PERF.graph_fingerprints += 1
    return h.hexdigest()


@dataclass
class Graph:
    """A directed attributed graph.

    Parameters
    ----------
    edge_index:
        ``(2, E)`` int array; row 0 holds source nodes, row 1 destinations.
    x:
        ``(N, F)`` float node-feature matrix.
    y:
        Labels — ``(N,)`` ints for node classification, scalar int for graph
        classification, or ``None``.
    num_nodes:
        Node count; inferred from ``x`` when omitted.
    train_mask / val_mask / test_mask:
        Optional ``(N,)`` boolean split masks (node classification).
    motif_edges:
        Optional set of ``(src, dst)`` pairs that form the ground-truth
        explanation motif (synthetic datasets only); used for AUC evaluation
        (Table IV).
    meta:
        Free-form metadata (dataset name, generator parameters, …).

    Every array field is read-only (``flags.writeable`` is ``False``):
    arrays are frozen in place at construction, and an array assigned to a
    field later is frozen on assignment.
    """

    edge_index: np.ndarray
    x: np.ndarray
    y: np.ndarray | int | None = None
    num_nodes: int | None = None
    train_mask: np.ndarray | None = None
    val_mask: np.ndarray | None = None
    test_mask: np.ndarray | None = None
    motif_edges: frozenset[tuple[int, int]] | None = None
    meta: dict = field(default_factory=dict)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, np.ndarray) and name in _ARRAY_FIELDS:
            value = _frozen(value, _ARRAY_FIELDS[name])
        object.__setattr__(self, name, value)

    def __setstate__(self, state: dict) -> None:
        # Unpickled / deep-copied arrays come back writable: refreeze them.
        for name, value in state.items():
            setattr(self, name, value)

    def __post_init__(self) -> None:
        self.edge_index = np.asarray(self.edge_index, dtype=np.int64)
        if self.edge_index.ndim != 2 or self.edge_index.shape[0] != 2:
            raise GraphError(f"edge_index must have shape (2, E), got {self.edge_index.shape}")
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2:
            raise GraphError(f"x must have shape (N, F), got {self.x.shape}")
        if self.num_nodes is None:
            self.num_nodes = self.x.shape[0]
        if self.x.shape[0] != self.num_nodes:
            raise GraphError(
                f"x has {self.x.shape[0]} rows but num_nodes={self.num_nodes}"
            )
        if self.edge_index.size and self.edge_index.max() >= self.num_nodes:
            raise GraphError(
                f"edge_index references node {int(self.edge_index.max())} "
                f"but graph has {self.num_nodes} nodes"
            )
        if self.edge_index.size and self.edge_index.min() < 0:
            raise GraphError("edge_index contains negative node ids")
        for name in ("train_mask", "val_mask", "test_mask"):
            mask = getattr(self, name)
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape != (self.num_nodes,):
                    raise GraphError(f"{name} must have shape ({self.num_nodes},), got {mask.shape}")
                setattr(self, name, mask)
        if self.motif_edges is not None and not isinstance(self.motif_edges, frozenset):
            self.motif_edges = frozenset((int(u), int(v)) for u, v in self.motif_edges)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self.edge_index.shape[1]

    @property
    def num_features(self) -> int:
        """Node-feature dimensionality."""
        return self.x.shape[1]

    @property
    def src(self) -> np.ndarray:
        """Source node of each edge, shape ``(E,)``."""
        return self.edge_index[0]

    @property
    def dst(self) -> np.ndarray:
        """Destination node of each edge, shape ``(E,)``."""
        return self.edge_index[1]

    def __repr__(self) -> str:
        label = "" if self.y is None else f", y={'array' if isinstance(self.y, np.ndarray) else self.y}"
        return (
            f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"num_features={self.num_features}{label})"
        )

    # ------------------------------------------------------------------
    # content fingerprint
    # ------------------------------------------------------------------
    def structure_digest(self) -> str:
        """SHA-1 hex digest of ``(num_nodes, edge_index)``.

        Computed on first request and memoized on the graph, validated by
        the identity of ``edge_index``: the array is read-only, so the same
        object always holds the same edges, and assigning a new array
        recomputes the digest. Flows and contexts depend on nothing else.
        """
        memo = self.__dict__.get("_structure_memo")
        if memo is not None and memo[0] is self.edge_index and memo[1] == self.num_nodes:
            PERF.graph_fingerprint_hits += 1
            return memo[2]
        digest = _sha1(str(self.num_nodes).encode(), np.ascontiguousarray(self.edge_index))
        self._structure_memo = (self.edge_index, self.num_nodes, digest)
        return digest

    def feature_digest(self) -> str:
        """SHA-1 hex digest of the node features ``x`` (shape and values).

        Memoized and validated like :meth:`structure_digest`, on the
        identity of ``x``.
        """
        memo = self.__dict__.get("_feature_memo")
        if memo is not None and memo[0] is self.x:
            PERF.graph_fingerprint_hits += 1
            return memo[1]
        digest = _sha1(str(self.x.shape).encode(), np.ascontiguousarray(self.x))
        self._feature_memo = (self.x, digest)
        return digest

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def edge_id_map(self) -> dict[tuple[int, int], int]:
        """Return ``(src, dst) -> edge position`` (first occurrence wins)."""
        mapping: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(zip(self.src.tolist(), self.dst.tolist())):
            mapping.setdefault((u, v), i)
        return mapping

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` exists."""
        return bool(np.any((self.src == u) & (self.dst == v)))

    def in_degree(self) -> np.ndarray:
        """Incoming degree per node, shape ``(N,)``."""
        return np.bincount(self.dst, minlength=self.num_nodes)

    def out_degree(self) -> np.ndarray:
        """Outgoing degree per node, shape ``(N,)``."""
        return np.bincount(self.src, minlength=self.num_nodes)

    def with_edges(self, keep: np.ndarray) -> "Graph":
        """Return a copy keeping only edges where ``keep`` is True.

        Node set, features and labels are unchanged — exactly the operation
        fidelity metrics use to build explanatory / unexplanatory subgraphs.
        The read-only feature matrix is shared, not copied, and so is its
        digest when the parent has one.
        """
        keep = np.asarray(keep)
        if keep.dtype != bool:
            mask = np.zeros(self.num_edges, dtype=bool)
            mask[keep] = True
            keep = mask
        if keep.shape != (self.num_edges,):
            raise GraphError(f"edge keep mask must have shape ({self.num_edges},), got {keep.shape}")
        child = Graph(
            edge_index=self.edge_index[:, keep],
            x=self.x,
            y=self.y,
            num_nodes=self.num_nodes,
            train_mask=self.train_mask,
            val_mask=self.val_mask,
            test_mask=self.test_mask,
            motif_edges=self.motif_edges,
            meta=dict(self.meta),
        )
        memo = self.__dict__.get("_feature_memo")
        if memo is not None and memo[0] is child.x:
            child._feature_memo = memo
        return child

    def copy(self) -> "Graph":
        """Deep copy of all array payloads (the copies are read-only too)."""
        return Graph(
            edge_index=self.edge_index.copy(),
            x=self.x.copy(),
            y=self.y.copy() if isinstance(self.y, np.ndarray) else self.y,
            num_nodes=self.num_nodes,
            train_mask=None if self.train_mask is None else self.train_mask.copy(),
            val_mask=None if self.val_mask is None else self.val_mask.copy(),
            test_mask=None if self.test_mask is None else self.test_mask.copy(),
            motif_edges=self.motif_edges,
            meta=dict(self.meta),
        )

    def validate(self) -> None:
        """Re-run the construction-time invariant checks."""
        self.__post_init__()
