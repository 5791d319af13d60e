"""Run manifests: everything needed to reproduce one experiment run.

Every traced experiment writes a ``RunManifest`` JSON next to its trace:
the experiment coordinates (artifact, dataset, conv, methods, mode, config
snapshot), the code identity (git sha, package version, python/numpy
versions), the dataset fingerprint, the seed, the run's PERF counter
delta, and the tracer's per-method span aggregates. A results-table row
plus its manifest is a self-contained reproduction recipe; the span
aggregates are the paper-style per-phase cost breakdown (flow enumeration
vs. mask optimization vs. masked forwards) that Table V's wall-clock
numbers summarize.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["RunManifest", "build_manifest", "load_manifest",
           "dataset_fingerprint", "git_revision"]

MANIFEST_SCHEMA_VERSION = 1


def git_revision() -> str | None:
    """The repository HEAD sha, or ``None`` outside a git checkout."""
    root = Path(__file__).resolve()
    for candidate in root.parents:
        if (candidate / ".git").exists():
            try:
                out = subprocess.run(
                    ["git", "rev-parse", "HEAD"], cwd=candidate, timeout=5.0,
                    capture_output=True, text=True, check=True,
                )
                return out.stdout.strip() or None
            except (OSError, subprocess.SubprocessError):
                return None
    return None


def dataset_fingerprint(dataset) -> str:
    """Stable content hash of a :mod:`repro.datasets` dataset.

    Built from each graph's structure and feature digests (see
    :meth:`repro.graph.Graph.structure_digest`), in order, so any change
    to structure, features or graph count changes the fingerprint, and an
    identical rebuild keeps it.
    """
    import hashlib

    graphs = [dataset.graph] if getattr(dataset, "task", None) == "node" \
        or hasattr(dataset, "graph") else dataset.graphs
    digest = hashlib.sha1()
    for graph in graphs:
        digest.update(graph.structure_digest().encode())
        digest.update(graph.feature_digest().encode())
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Provenance record for one experiment run.

    Attributes
    ----------
    trace_id:
        Id shared by every span of the run's merged trace.
    run:
        Experiment coordinates: artifact, dataset, conv, methods, mode,
        seed, effort/instance counts — the plan/driver meta dict.
    perf:
        :meth:`repro.obs.counters.PerfCounters.delta` over the run,
        including counters merged back from worker processes.
    spans:
        ``{method: {stage: {"count", "seconds"}}}`` aggregates from the
        merged trace (eviction-proof, see :class:`repro.obs.trace.Tracer`).
    dropped_spans:
        Raw records evicted from bounded buffers (aggregates unaffected).
    """

    trace_id: str
    run: dict
    perf: dict
    spans: dict
    dropped_spans: int = 0
    git_sha: str | None = None
    dataset_fingerprint: str | None = None
    created_unix: float = 0.0
    schema_version: int = MANIFEST_SCHEMA_VERSION
    versions: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, default=_jsonable)
                        + "\n", encoding="utf-8")
        return path

    def stage_seconds(self, method: str, stage: str) -> float:
        """Total seconds of ``stage`` spans under ``method`` (0.0 if none)."""
        return float(self.spans.get(method, {}).get(stage, {}).get("seconds", 0.0))


def _jsonable(value):
    """Fallback encoder: numpy scalars/arrays and paths degrade gracefully."""
    if hasattr(value, "item"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


def build_manifest(trace_id: str, run_meta: dict, perf_delta: dict,
                   span_aggregates: dict, dropped_spans: int = 0,
                   fingerprint: str | None = None) -> RunManifest:
    """Assemble a manifest from a finished run's measurements."""
    import numpy

    from ..version import __version__

    return RunManifest(
        trace_id=trace_id,
        run=dict(run_meta),
        perf=dict(perf_delta),
        spans=span_aggregates,
        dropped_spans=dropped_spans,
        git_sha=git_revision(),
        dataset_fingerprint=fingerprint,
        created_unix=time.time(),
        versions={"repro": __version__, "python": platform.python_version(),
                  "numpy": numpy.__version__},
    )


def load_manifest(path: str | Path) -> RunManifest:
    """Read a manifest written by :meth:`RunManifest.write`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    known = {f for f in RunManifest.__dataclass_fields__}
    return RunManifest(**{k: v for k, v in data.items() if k in known})
