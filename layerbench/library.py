"""Library-call workloads: ``revelio_cora`` and ``cora5_eval``.

Both run a fixed list of operations. The targets are fixed quantile
representatives of the flow-count distribution; the seed sets the visit
order inside each round, which mode of each target runs first, which of
its two explanations is swept, and Revelio's RNG seeds. Rounds are
interleaved round-robin, so a noisy-neighbour burst lands on every target
alike. Each round opens with one short training fit, and before each
target the result, context and flow caches are cleared, so every visit
does the same work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .common import (MIN_EXPLAIN_SAMPLES, MODES, SETUP_REPEATS, SPARSITIES, Ops,
                     clear_caches, cold_setup, digest, explanations_agree, fit_op,
                     p50, p90, quantile_targets, sweep, sweeps_agree, timed_op, trainer)
from .report import (REQUEST_METRICS, accounting_error_ms, check_trace,
                     per_layer_metrics)
from .tracer import Hooks, Tracer, TIMED_BACKEND

__all__ = ["LibraryWorkload", "REVELIO_CORA", "CORA5_EVAL", "run_library"]


@dataclass(frozen=True)
class LibraryWorkload:
    """Parameters of one library workload; all fixed, none adapt at run time."""

    name: str
    scale: float                # Cora size multiplier
    epochs: int                 # Revelio mask-learning epochs per explanation
    levels: tuple[float, ...]   # flow-count quantiles of the targets (odd count)
    rounds: int                 # rounds at the nominal ``--seconds``
    sampled: bool               # explain through SampledExplainRuntime
    fit_epochs: int             # epochs of the fit that opens every round
    checked_explanations: int = 2
    checked_sweeps: int = 2

    def params(self) -> dict:
        return {"dataset": "cora", "conv": "gcn", "scale": self.scale,
                "revelio_epochs": self.epochs, "target_quantiles": list(self.levels),
                "sparsity_grid": list(SPARSITIES), "sampled": self.sampled,
                "fit_epochs": self.fit_epochs}


#: Revelio on Cora x1: the autograd tape and Revelio's own Python dominate.
REVELIO_CORA = LibraryWorkload(
    name="revelio_cora", scale=1.0, epochs=30,
    levels=tuple((2 * k + 1) / 14 for k in range(7)), rounds=8, sampled=False,
    fit_epochs=6)

#: Cora x5: large-working-set kernels, sampling, training fits.
CORA5_EVAL = LibraryWorkload(
    name="cora5_eval", scale=5.0, epochs=30,
    levels=tuple((2 * k + 1) / 10 for k in range(5)), rounds=10, sampled=True,
    fit_epochs=3, checked_sweeps=1)


@dataclass
class Step:
    target: int
    modes: tuple[str, str]
    swept: str
    fit: bool


@dataclass
class Pass:
    """Timings and outputs of one execution of the operation list."""

    explain: list[float] = field(default_factory=list)
    sweep: list[float] = field(default_factory=list)
    epoch: list[float] = field(default_factory=list)
    wall: float = 0.0
    counts: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)


class _Runner:
    def __init__(self, wl: LibraryWorkload, seed: int, seconds: int,
                 nominal_seconds: int, state_dir: Path):
        self.wl = wl
        self.seed = seed
        self.state_dir = state_dir
        # The op list grows with --seconds, never with elapsed time.
        self.rounds = max(wl.rounds, math.ceil(wl.rounds * seconds / nominal_seconds))
        self.ops = Ops()
        self.tracer: Tracer | None = None

    # -- set-up ----------------------------------------------------------
    def setup(self, rep: int) -> tuple[float, float]:
        """One cold set-up; returns ``(load_s, train_s)``."""
        dataset, model, load_s, train_s = cold_setup(
            "cora", self.wl.scale, self.state_dir / f"cache{rep}")
        self.dataset, self.model, self.graph = dataset, model, dataset.graph
        return load_s, train_s

    def plan(self) -> None:
        self.targets, self.flows = quantile_targets(self.graph, self.model.num_layers,
                                                    self.wl.levels)
        self.expected_flows = dict(zip(self.targets, self.flows))
        rng = np.random.default_rng(self.seed)
        self.explainer_seed = {t: int(rng.integers(2**31 - 1)) for t in self.targets}
        self.steps = []
        for _ in range(self.rounds):
            fit = True
            for i in rng.permutation(len(self.targets)):
                modes = MODES if rng.random() < 0.5 else MODES[::-1]
                swept = MODES[int(rng.integers(2))]
                self.steps.append(Step(self.targets[i], modes, swept, fit))
                fit = False
        if 2 * len(self.steps) < MIN_EXPLAIN_SAMPLES:
            raise ValueError(f"{self.wl.name} plans too few explanations for a p90")
        checks = np.random.default_rng(self.seed + 1)
        n = len(self.steps)
        self.checked_explain = {(int(i), MODES[int(checks.integers(2))]) for i in
                                checks.choice(n, self.wl.checked_explanations, replace=False)}
        self.checked_sweeps = {int(i) for i in
                               checks.choice(n, self.wl.checked_sweeps, replace=False)}

    # -- operations --------------------------------------------------------
    def explain(self, target: int, mode: str):
        from repro.core import Revelio
        from repro.explain import ExplainTarget
        from repro.sampling import SampledExplainRuntime

        explainer = Revelio(self.model, epochs=self.wl.epochs,
                            seed=self.explainer_seed[target])
        if self.wl.sampled:
            explainer = SampledExplainRuntime(explainer)
        return explainer.explain(self.graph, ExplainTarget.node(target), mode=mode)

    def _check_explanation(self, target: int, mode: str, explanation) -> str | None:
        if explanation.target != target or explanation.mode != mode:
            return f"explained {explanation.target}/{explanation.mode}"
        if explanation.meta.get("num_flows") != self.expected_flows[target]:
            return (f"{explanation.meta.get('num_flows')} flows, "
                    f"expected {self.expected_flows[target]}")
        if explanation.edge_scores.shape != (self.graph.num_edges,) or \
                not np.isfinite(explanation.edge_scores).all():
            return "edge scores malformed"
        return None

    def run_pass(self) -> Pass:
        """Execute the whole operation list once."""
        from repro.obs import perf_snapshot

        out = Pass()
        self.fit_losses = None
        flows = 0
        before = perf_snapshot()
        start = time.perf_counter()
        for index, step in enumerate(self.steps):
            if step.fit:
                epoch_s, self.fit_losses = fit_op(
                    self.ops, self.tracer, self.graph, self.dataset.num_classes,
                    self.wl.fit_epochs, self.fit_losses)
                if epoch_s is not None:
                    out.epoch.append(epoch_s)
            clear_caches()
            explained = {}
            for mode in step.modes:
                timed = timed_op(self.ops, self.tracer, "explain",
                                 lambda mode=mode: self.explain(step.target, mode))
                if timed is None:
                    continue
                seconds, explanation = timed
                problem = self._check_explanation(step.target, mode, explanation)
                if problem is not None:
                    self.ops.fail("explain", f"node {step.target}: {problem}")
                    continue
                out.explain.append(seconds)
                explained[mode] = explanation
                flows += explanation.meta["num_flows"]
                if (index, mode) in self.checked_explain:
                    out.kept[("explain", index, mode)] = explanation
            swept = explained.get(step.swept)
            if swept is None:
                continue
            timed = timed_op(self.ops, self.tracer, "sweep", lambda: sweep(
                self.model, self.graph, step.target, swept, tracer=self.tracer))
            if timed is None:
                continue
            seconds, curve = timed
            if not all(np.isfinite(v) for v in curve.values()):
                self.ops.fail("sweep", f"node {step.target}: non-finite fidelity")
                continue
            out.sweep.append(seconds)
            if index in self.checked_sweeps:
                out.kept[("sweep", index)] = (step.target, swept, curve)
        out.wall = time.perf_counter() - start
        after = perf_snapshot()
        out.counts = {
            "ops_explain": len(out.explain), "ops_sweep": len(out.sweep),
            "ops_fit": len(out.epoch),
            "targets": digest([[s.target, list(s.modes), s.swept, s.fit] for s in self.steps]),
            "flows_explained": flows, "epochs_run": len(out.epoch) * self.wl.fit_epochs,
            **{f"perf_{k}": after[k] - before[k] for k in (
                "flow_enumerations", "batched_rows", "explanation_cache_hits")},
        }
        return out

    def warm_up(self) -> None:
        """One of every operation on the median target, outside any timing."""
        target = self.targets[len(self.targets) // 2]
        clear_caches()
        for mode in MODES:
            sweep(self.model, self.graph, target, self.explain(target, mode))
        trainer(self.graph, self.dataset.num_classes, 1).fit_node(self.graph)

    # -- output checks ---------------------------------------------------
    def check_outputs(self, kept: dict) -> None:
        """Recompute sampled outputs with the reference paths."""
        from repro.sparse import use_backend

        for key, value in sorted(kept.items(), key=lambda kv: str(kv[0])):
            try:
                if key[0] == "explain":
                    _, index, mode = key
                    clear_caches()
                    with use_backend("numpy"):
                        reference = self.explain(self.steps[index].target, mode)
                    problem = explanations_agree(value, reference)
                else:
                    target, explanation, curve = value
                    problem = sweeps_agree(curve, sweep(self.model, self.graph, target,
                                                        explanation, batched=False))
            except Exception as exc:  # a crashed check is a failed check
                problem = f"{type(exc).__name__}: {exc}"
            self.ops.check(f"check_{key[0]}", problem and f"{key}: {problem}")

    def traced_pass(self, untraced: Pass) -> tuple[dict, dict, dict]:
        """The same operation list with every layer hook installed.

        Returns ``(metrics, trace record, kernel call counts)``.
        """
        from repro.sparse import current_backend, use_backend

        tracer = self.tracer = Tracer()
        hooks = Hooks(tracer)
        backend = current_backend()
        hooks.install()
        try:
            with use_backend(TIMED_BACKEND):
                traced = self.run_pass()
        finally:
            leftovers = hooks.restore()
            self.tracer = None
        accounting_ms = accounting_error_ms(tracer.ops)
        check_trace(self.ops, leftovers, backend, accounting_ms, traced.counts,
                    untraced.counts)
        # Tracing must not change what was computed.
        for key, value in untraced.kept.items():
            if key[0] == "explain":
                other = traced.kept.get(key)
                self.ops.check("trace", f"traced output {key} differs" if other is None
                               else explanations_agree(value, other))
        metrics = per_layer_metrics(tracer.ops)
        metrics.update({f"request.{name}": 0.0 for name in REQUEST_METRICS})
        metrics["setup.serve.start_s"] = 0.0
        metrics["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0
        record = {"accounting_max_err_ms": accounting_ms,
                  "untraced_wall_s": untraced.wall, "traced_wall_s": traced.wall}
        counts = {f"kernel_calls_{op}": n for op, n in sorted(hooks.kernel_calls.items())}
        return metrics, record, counts


def run_library(wl: LibraryWorkload, *, seed: int, seconds: int, nominal_seconds: int,
                trace: bool, state_dir: Path) -> dict:
    """Run a library workload; returns metrics, counts and the run record."""
    runner = _Runner(wl, seed, seconds, nominal_seconds, state_dir)
    setups = [runner.setup(0)]
    runner.plan()
    runner.warm_up()
    untraced = runner.run_pass()
    runner.check_outputs(untraced.kept)
    counts = dict(untraced.counts)
    if trace:
        metrics, trace_record, kernel_counts = runner.traced_pass(untraced)
        counts.update(kernel_counts)
    # Further cold set-ups after the timed phase spread setup_s over the run.
    setups += [runner.setup(rep) for rep in range(1, SETUP_REPEATS)]
    record = {"params": {**wl.params(), "rounds": runner.rounds,
                         "targets": runner.targets, "target_flows": runner.flows},
              "samples": {"explain": len(untraced.explain), "sweep": len(untraced.sweep),
                          "fit": len(untraced.epoch), "setup": SETUP_REPEATS}}
    if trace:
        loads, trains = zip(*setups)
        metrics["setup.datasets.load_s"] = p50(loads)
        metrics["setup.nn.train_s"] = p50(trains)
        record["trace"] = trace_record
    else:
        metrics = {
            "setup_s": p50([load + train for load, train in setups]),
            "explain_p50_ms": p50(untraced.explain) * 1e3,
            "explain_p90_ms": p90(untraced.explain) * 1e3,
            "explain_per_s": len(untraced.explain) / sum(untraced.explain),
            "sweep_p50_ms": p50(untraced.sweep) * 1e3,
            "epoch_p50_ms": p50(untraced.epoch) * 1e3,
        }
    return {"metrics": metrics, "ops": runner.ops, "counts": counts, "record": record}
