"""Pieces shared by the workloads: set-up, targets, statistics, records.

Everything here reaches the library through its public entry points only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

__all__ = [
    "MODES", "METRIC", "SPARSITIES", "PARITY_TOL", "SETUP_REPEATS",
    "MIN_EXPLAIN_SAMPLES", "Ops",
    "timed_op", "cold_setup", "trainer", "fit_op", "sweep", "flow_counts",
    "quantile_targets", "p50", "p90", "peak_rss_mb", "calibrate", "environment",
    "check_identity", "clear_caches", "explanations_agree", "sweeps_agree", "digest",
]

MODES = ("factual", "counterfactual")
#: Fidelity metric matching each explanation mode (Fig. 3 / Fig. 4).
METRIC = {"factual": "minus", "counterfactual": "plus"}
#: The Fig. 3/4 sparsity grid (``repro.eval.DEFAULT_SPARSITIES``).
SPARSITIES = (0.5, 0.6, 0.7, 0.8, 0.9)
#: Largest allowed |difference| between an output and its oracle.
PARITY_TOL = 1e-8
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Explanations every run plans: the nearest-rank p90 of 100 samples
#: leaves ten above it.
MIN_EXPLAIN_SAMPLES = 100


class Ops:
    """Attempted / failed operation counts per kind, plus failure notes."""

    def __init__(self) -> None:
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.notes: list[str] = []

    def attempt(self, kind: str) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1

    def fail(self, kind: str, note: str) -> None:
        self.failed[kind] = self.failed.get(kind, 0) + 1
        if len(self.notes) < 20:
            self.notes.append(f"{kind}: {note}"[:300])

    def check(self, kind: str, problem: str | None) -> None:
        """Count one check; it fails when ``problem`` is not ``None``."""
        self.attempt(kind)
        if problem is not None:
            self.fail(kind, problem)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


def timed_op(ops: Ops, tracer, kind: str, fn):
    """Run one operation; ``(seconds, output)``, or ``None`` if it raised.

    With a tracer, the operation is the root of a span tree.
    """
    ops.attempt(kind)
    if tracer is not None:
        tracer.begin_op(kind)
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        if tracer is not None:
            tracer.abandon_op()
        ops.fail(kind, f"{type(exc).__name__}: {exc}")
        return None
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    return seconds, out


# ----------------------------------------------------------------------
# set-up and the operations every workload shares
# ----------------------------------------------------------------------
def cold_setup(name: str, scale: float, cache_dir: Path):
    """Build the dataset and train its GCN target from an empty cache.

    Returns ``(dataset, model, load_s, train_s)``. The model
    checkpoint lands in ``cache_dir``, which ``REPRO_CACHE`` points at
    afterwards, so a serving pool started next loads exactly this model.
    """
    from repro.datasets import load_dataset
    from repro.nn.zoo import get_model

    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    os.environ["REPRO_CACHE"] = str(cache_dir)
    t0 = time.perf_counter()
    dataset = load_dataset(name, scale=scale, seed=0)
    t1 = time.perf_counter()
    model, dataset, result = get_model(name, "gcn", scale=scale, seed=0,
                                       dataset=dataset)
    t2 = time.perf_counter()
    if result is None:
        raise RuntimeError(f"{cache_dir} was not empty: the model was not trained")
    return dataset, model, t1 - t0, t2 - t1


def trainer(graph, num_classes: int, epochs: int):
    """A fresh GCN and full-batch trainer with patience off, so every fit
    runs the same epochs from the same initial weights."""
    from repro.nn.models import build_model
    from repro.nn.train import Trainer

    model = build_model("gcn", "node", graph.num_features, num_classes, rng=0)
    return Trainer(model, lr=0.01, weight_decay=5e-4, epochs=epochs, patience=None)


def fit_op(ops: Ops, tracer, graph, num_classes: int, epochs: int, first_losses):
    """One timed training fit; ``(seconds per epoch or None, losses)``.

    Every fit must repeat the run's first fit exactly (``first_losses``);
    the returned losses are what later fits are compared with.
    """
    fit = trainer(graph, num_classes, epochs)
    timed = timed_op(ops, tracer, "fit", lambda: fit.fit_node(graph))
    if timed is None:
        return None, first_losses
    seconds, result = timed
    losses = [h["loss"] for h in result.history]
    if result.epochs_run != epochs or not np.isfinite(losses).all():
        ops.fail("fit", f"ran {result.epochs_run} epochs, losses {losses[-1:]}")
        return None, first_losses
    if first_losses is not None and losses != first_losses:
        ops.fail("fit", "fit did not reproduce the run's first fit")
        return None, first_losses
    return seconds / epochs, losses


def sweep(model, graph, target: int, explanation, *, tracer=None,
          batched: bool = True) -> dict:
    """``fidelity_curve`` of one explanation over the sparsity grid."""
    from repro.eval.fidelity import Instance, fidelity_curve
    from repro.explain import ExplainTarget

    instance = Instance(graph, ExplainTarget.node(target))
    if tracer is None:
        return fidelity_curve(model, [instance], [explanation], list(SPARSITIES),
                              metric=METRIC[explanation.mode], batched=batched)
    with tracer.span("eval.self"):
        return fidelity_curve(model, [instance], [explanation], list(SPARSITIES),
                              metric=METRIC[explanation.mode], batched=batched)


# ----------------------------------------------------------------------
# targets
# ----------------------------------------------------------------------
def flow_counts(graph, num_layers: int) -> np.ndarray:
    """Message flows ending at every node (``1ᵀ Âᴸ``, self-loops included)."""
    import scipy.sparse as sp

    from repro.sparse import augmented_edges

    src, dst = augmented_edges(graph.edge_index, graph.num_nodes)
    n = graph.num_nodes
    adj_t = sp.csr_matrix((np.ones(src.shape[0]), (dst, src)), shape=(n, n))
    counts = np.ones(n)
    for _ in range(num_layers):
        counts = adj_t @ counts
    return np.rint(counts).astype(np.int64)


def quantile_targets(graph, num_layers: int, levels) -> tuple[list[int], list[int]]:
    """Fixed representatives of the flow-count distribution.

    For each quantile level the node at that rank of the (flows, id)
    order; explanation cost grows with the flow count, so the targets span
    the cost distribution at fixed points. Returns ``(targets, flows)``,
    and cross-checks every count against ``repro.flows.count_flows``.
    """
    from repro.flows import count_flows

    counts = flow_counts(graph, num_layers)
    order = np.lexsort((np.arange(counts.shape[0]), counts))
    ranks = [int(round(q * (order.shape[0] - 1))) for q in levels]
    if len(set(ranks)) != len(ranks):
        raise ValueError(f"quantile levels {levels} collide on {order.shape[0]} nodes")
    targets = [int(order[r]) for r in ranks]
    flows = [int(counts[t]) for t in targets]
    for t, f in zip(targets, flows):
        if count_flows(graph, num_layers, t) != f:
            raise RuntimeError(f"flow count of node {t} disagrees with count_flows")
    return targets, flows


def digest(value) -> str:
    return hashlib.sha1(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def clear_caches() -> None:
    """Drop every explanation-side memo: result, context and flow caches."""
    from repro.core.revelio import clear_explanation_cache
    from repro.explain.base import clear_context_cache
    from repro.flows import invalidate

    clear_explanation_cache()
    clear_context_cache()
    invalidate(None)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def p50(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return float(ordered[math.ceil(0.9 * len(ordered)) - 1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _max_diff(a, b) -> float:
    if a is None or b is None:
        return 0.0 if a is None and b is None else math.inf
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return math.inf
    return float(np.abs(a - b).max()) if a.size else 0.0


def explanations_agree(a, b) -> str | None:
    """``None`` when two explanations agree within :data:`PARITY_TOL`."""
    if a.predicted_class != b.predicted_class or a.target != b.target:
        return f"class/target {a.predicted_class}/{a.target} vs {b.predicted_class}/{b.target}"
    for field in ("edge_scores", "flow_scores", "layer_edge_scores"):
        diff = _max_diff(getattr(a, field), getattr(b, field))
        if not diff <= PARITY_TOL:
            return f"{field} differs by {diff}"
    return None


def sweeps_agree(a: dict, b: dict) -> str | None:
    if set(a) != set(b):
        return f"sparsity grids differ: {sorted(a)} vs {sorted(b)}"
    for s in a:
        if not abs(a[s] - b[s]) <= PARITY_TOL:
            return f"fidelity at {s} differs: {a[s]} vs {b[s]}"
    return None


# ----------------------------------------------------------------------
# run record
# ----------------------------------------------------------------------
def calibrate() -> dict:
    """Pinned GEMM and CSR mat-vec times: a noisy-neighbour diagnostic.

    Recorded beside each result and never used to normalize a metric.
    """
    import scipy.sparse as sp

    rng = np.random.default_rng(20250101)
    a = rng.standard_normal((256, 256))
    n, per_row = 60_000, 12
    m = sp.csr_matrix((rng.standard_normal(n * per_row), rng.integers(0, n, n * per_row),
                       np.arange(0, n * per_row + 1, per_row)), shape=(n, n))
    v = rng.standard_normal(n)
    gemm, matvec = [], []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(8):
            a @ a
        t1 = time.perf_counter()
        for _ in range(8):
            m @ v
        t2 = time.perf_counter()
        gemm.append((t1 - t0) / 8)
        matvec.append((t2 - t1) / 8)
    return {"gemm_256_ms": p50(gemm) * 1e3, "csr_matvec_720k_nnz_ms": p50(matvec) * 1e3}


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_digest(root: Path) -> str:
    """Content digest of ``src/``: identifies the code when git is absent."""
    h = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path) -> dict:
    import numpy
    import scipy

    from repro.sparse import current_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": current_backend(),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(root),
        "src_digest": _source_digest(root),
    }


def check_identity(state_dir: Path, key: str, counts: dict, store: bool) -> str | None:
    """Compare workload-identity counts with earlier same-key runs.

    Later runs must match the stored counts on every count both recorded.
    A run stores its counts only when ``store`` is true (it had no failed
    operation), so one broken run cannot poison the record. Returns a
    mismatch message or ``None``.
    """
    path = state_dir / "identity" / f"{key}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    diff = sorted(k for k in set(stored) & set(counts) if stored[k] != counts[k])
    if diff:
        return f"identity counts differ from an earlier same-seed run: {diff}"
    if store:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**stored, **counts}, sort_keys=True))
    return None
