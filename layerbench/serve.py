"""The ``serve_flowx`` workload: FlowX behind an in-process ``ServeApp``.

Two keep-alive HTTP clients (one per core) run a closed loop, because
callers of the daemon wait for each reply. Six fixed targets form three
pairs, the k-th cheapest with the k-th dearest by flow count; in every
round both clients walk the pairs in the same seed-chosen order, one
member each, so the two requests in flight together are always a pair
and the coalescer batches them together. Each client owns its members
for the whole run, so no target is ever in flight twice and nothing is
deduplicated. The seed sets the pair order of each round, which client
owns which member, and each pair's mode in each round. FlowX's own RNG
seed stays fixed: its coalition draws change the number of perturbed
forwards, so a per-run seed would change the work itself.

Between rounds, with no request in flight, the benchmark sweeps the
round's served explanations and runs one short training fit, so those
samples are spread over the whole run like the requests.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .common import (MIN_EXPLAIN_SAMPLES, MODES, SETUP_REPEATS, SPARSITIES, Ops,
                     cold_setup, digest, explanations_agree, fit_op, p50, p90,
                     quantile_targets, sweep, sweeps_agree, timed_op)
from .report import accounting_error_ms, check_trace, per_layer_metrics
from .tracer import Hooks, Tracer, TIMED_BACKEND

__all__ = ["SERVE_FLOWX", "ServeWorkload", "run_serve"]


@dataclass(frozen=True)
class ServeWorkload:
    name: str = "serve_flowx"
    dataset: str = "ba_shapes"
    scale: float = 0.15
    samples: int = 2
    finetune_epochs: int = 0
    #: Flow-count quantiles of the six targets. The top quarter of
    #: BA-Shapes nodes costs ~0.5 s each; stopping at the 64th percentile
    #: keeps one dear target per round, so the stream fits the run.
    levels: tuple[float, ...] = (0.06, 0.17, 0.29, 0.41, 0.52, 0.64)
    rounds: int = 17
    clients: int = 2
    fit_epochs: int = 40
    checked_explanations: int = 2
    checked_sweeps: int = 2

    @property
    def model_key(self) -> tuple:
        return (self.dataset, "gcn", self.scale, 0)

    def explainer_params(self) -> dict:
        return {"samples": self.samples, "finetune_epochs": self.finetune_epochs,
                "seed": 0}

    def params(self) -> dict:
        return {"dataset": self.dataset, "conv": "gcn", "scale": self.scale,
                "explainer": "flowx", "explainer_params": self.explainer_params(),
                "target_quantiles": list(self.levels), "clients": self.clients,
                "sparsity_grid": list(SPARSITIES), "fit_epochs": self.fit_epochs,
                "serve_config": "ServeConfig()"}


SERVE_FLOWX = ServeWorkload()


class _Span:
    """Server-side timestamps of one in-flight request (keyed by node)."""

    __slots__ = ("submit", "batch_end", "compute", "wire", "batch", "joined")

    def __init__(self) -> None:
        self.submit = self.batch_end = math.nan
        self.compute = self.wire = 0.0
        self.batch = 0
        self.joined = False


class _ServeTrace:
    """Hooks that split each request into queue, compute and wire time.

    At most one request per target is in flight, so the node id keys a
    request across the event loop (parse, submit, encode) and the
    numerics thread (resolve → explain → wire). The explain operation is
    opened when the runtime resolves the request and closed when it hands
    the explanation to ``wire_explanation``; that is the compute time.
    Queue time is the rest of the span from ``Coalescer.submit`` to the
    end of the request's micro-batch: linger, and waiting for the other
    requests of the batch. Wire time is request parsing plus response
    encoding.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.inflight: dict[int, _Span] = {}

    def _span(self, node: int) -> _Span:
        return self.inflight.setdefault(int(node), _Span())

    def patches(self) -> tuple:
        from repro.serve import Coalescer

        def parse(fn):
            def wrapper(payload):
                t0 = time.perf_counter()
                request = fn(payload)
                self._span(request.target.node_id).wire += time.perf_counter() - t0
                return request
            return wrapper

        def resolve(fn):
            def wrapper(dataset, request):
                if self.tracer.in_op():  # the previous request failed mid-way
                    self.tracer.abandon_op()
                self.tracer.begin_op("explain")
                return fn(dataset, request)
            return wrapper

        def wire(fn):
            def wrapper(explanation):
                span = self._span(explanation.target)
                if self.tracer.in_op():
                    span.compute = self.tracer.end_op().wall
                t0 = time.perf_counter()
                out = fn(explanation)
                span.wire += time.perf_counter() - t0
                return out
            return wrapper

        def encode(fn):
            def wrapper(status, payload, *args, **kwargs):
                t0 = time.perf_counter()
                out = fn(status, payload, *args, **kwargs)
                target = (payload.get("explanation") or {}).get("target") \
                    if isinstance(payload, dict) else None
                if target is not None:
                    self._span(target).wire += time.perf_counter() - t0
                return out
            return wrapper

        def submit(fn):
            def wrapper(coalescer, request):
                out = fn(coalescer, request)
                span = self._span(request.target.node_id)
                span.submit = time.perf_counter()
                span.joined = bool(out[1])
                return out
            return wrapper

        return (("repro.serve.app", "parse_explain_request", parse),
                ("repro.serve.runtime", "resolve_instance", resolve),
                ("repro.serve.runtime", "wire_explanation", wire),
                ("repro.serve.app", "response_bytes", encode),
                (Coalescer, "submit", submit))

    def before_batch(self, requests) -> None:
        for request in requests:
            self._span(request.target.node_id).batch = len(requests)

    def after_batch(self, requests) -> None:
        if self.tracer.in_op():  # the runtime failed between the hooks
            self.tracer.abandon_op()
        end = time.perf_counter()
        for request in requests:
            self._span(request.target.node_id).batch_end = end


class _BatchRunner:
    """The injected ``batch_runner``: delegates to ``ExplainRuntime``."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.trace: _ServeTrace | None = None

    def __call__(self, requests):
        trace = self.trace
        if trace is None:
            return self.runtime(requests)
        trace.before_batch(requests)
        try:
            return self.runtime(requests)
        finally:
            trace.after_batch(requests)


async def _send(reader, writer, body: dict):
    """One ``POST /explain`` over a keep-alive connection."""
    payload = json.dumps(body).encode("utf-8")
    writer.write(b"POST /explain HTTP/1.1\r\nHost: bench\r\n"
                 b"Content-Type: application/json\r\n"
                 + f"Content-Length: {len(payload)}\r\n\r\n".encode("ascii") + payload)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("ascii").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    data = await reader.readexactly(length) if length else b""
    return status, json.loads(data) if data else None


class _Stream:
    """Samples of one pass over the operation list."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.responses: list[tuple[int, str, dict]] = []
        self.requests: list[tuple[float, _Span]] = []
        self.sweeps: list[float] = []
        self.epochs: list[float] = []
        self.kept: dict = {}
        self.wall = 0.0       # request stream only: rounds, not the gaps
        self.counts: dict = {}


class _ServeRunner:
    def __init__(self, wl: ServeWorkload, seed: int, seconds: int,
                 nominal_seconds: int, state_dir: Path):
        self.wl = wl
        self.seed = seed
        self.state_dir = state_dir
        self.rounds = max(wl.rounds, math.ceil(wl.rounds * seconds / nominal_seconds))
        self.ops = Ops()
        self.tracer: Tracer | None = None
        self.trace: _ServeTrace | None = None

    # -- set-up ----------------------------------------------------------
    async def setup(self, rep: int) -> tuple:
        """One cold set-up; returns ``(app, runner, timings)``."""
        from repro.serve import ExplainRuntime, ModelPool, ServeApp, ServeConfig

        dataset, model, load_s, train_s = cold_setup(
            self.wl.dataset, self.wl.scale, self.state_dir / f"cache{rep}")
        t0 = time.perf_counter()
        pool = ModelPool()
        runner = _BatchRunner(ExplainRuntime(pool))
        app = ServeApp(ServeConfig(), batch_runner=runner)
        await app.start()
        pool.preload(self.wl.model_key)
        start_s = time.perf_counter() - t0
        self.dataset, self.model, self.graph = dataset, model, dataset.graph
        return app, runner, (load_s, train_s, start_s)

    # -- plan ------------------------------------------------------------
    def plan(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = len(self.targets)
        pairs = [(self.targets[k], self.targets[n - 1 - k]) for k in range(n // 2)]
        owner = [pair if rng.random() < 0.5 else pair[::-1] for pair in pairs]
        # rounds[r][c]: client c's (target, mode) list in round r.
        self.plan_rounds: list[list[list[tuple[int, str]]]] = []
        for _ in range(self.rounds):
            lists: list[list[tuple[int, str]]] = [[] for _ in range(self.wl.clients)]
            for k in rng.permutation(len(pairs)):
                # One mode per pair: the mode is part of the coalescer's
                # batch key, and the pair must share a micro-batch.
                mode = MODES[int(rng.integers(2))]
                for client in range(self.wl.clients):
                    lists[client].append((owner[k][client], mode))
            self.plan_rounds.append(lists)
        flat = [item for lists in self.plan_rounds for items in lists for item in items]
        if len(flat) < MIN_EXPLAIN_SAMPLES:
            raise ValueError(f"{self.wl.name} plans too few requests for a p90")
        checks = np.random.default_rng(self.seed + 1)
        self.checked_explain = sorted({flat[int(i)] for i in checks.choice(
            len(flat), self.wl.checked_explanations, replace=False)})
        self.checked_sweeps = {int(i) for i in checks.choice(
            len(flat), self.wl.checked_sweeps, replace=False)}

    def body(self, target: int, mode: str) -> dict:
        return {"dataset": self.wl.dataset, "model": "gcn", "explainer": "flowx",
                "target": {"node": target}, "mode": mode, "scale": self.wl.scale,
                "params": self.wl.explainer_params()}

    # -- library reference -----------------------------------------------
    def library(self, target: int, mode: str):
        from repro.eval.fidelity import Instance
        from repro.explain import ExplainTarget, explain_instances, make_explainer

        explainer = make_explainer("flowx", self.model, **self.wl.explainer_params())
        batch = explain_instances(explainer, [Instance(self.graph, ExplainTarget.node(target))],
                                  mode=mode, raise_on_error=True)
        return batch.explanations[0]

    def references(self) -> None:
        from repro.serve import canonical_bytes, wire_explanation

        self.expected: dict[tuple[int, str], bytes] = {}
        self.reference: dict[tuple[int, str], object] = {}
        keys = {item for lists in self.plan_rounds for items in lists for item in items}
        keys |= {(t, "factual") for t in self.targets}  # the warm-up requests
        for key in sorted(keys):
            explanation = self.library(*key)
            self.reference[key] = explanation
            self.expected[key] = canonical_bytes(wire_explanation(explanation)[0])

    # -- the stream --------------------------------------------------------
    async def _client(self, conn, items, out: _Stream, served: list) -> None:
        reader, writer = conn
        for target, mode in items:
            self.ops.attempt("request")
            t0 = time.perf_counter()
            try:
                status, payload = await _send(reader, writer, self.body(target, mode))
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                self.ops.fail("request", f"node {target}: {type(exc).__name__}: {exc}")
                continue
            seconds = time.perf_counter() - t0
            if self.trace is not None:
                out.requests.append((seconds, self.trace.inflight.pop(target, _Span())))
            if status != 200:
                self.ops.fail("request", f"node {target}: HTTP {status} {payload}")
                continue
            served.append((seconds, target, mode, payload["explanation"]))

    def _between_rounds(self, served, out: _Stream) -> None:
        """Check the round's responses, sweep them, then one training fit.

        A response must be byte-identical to the library answer; one that
        is not is a failed request and leaves no latency sample.
        """
        from repro.explain.io import explanation_from_jsonable
        from repro.serve import canonical_bytes

        for seconds, target, mode, payload in served:
            if canonical_bytes(payload) != self.expected[(target, mode)]:
                self.ops.fail("request", f"node {target}/{mode} differs from the library")
                continue
            out.latencies.append(seconds)
            out.responses.append((target, mode, payload))
            index = len(out.sweeps)
            explanation = explanation_from_jsonable(payload)
            timed = timed_op(self.ops, self.tracer, "sweep", lambda: sweep(
                self.model, self.graph, target, explanation, tracer=self.tracer))
            if timed is None:
                continue
            seconds, curve = timed
            if not all(np.isfinite(v) for v in curve.values()):
                self.ops.fail("sweep", f"node {target}: non-finite fidelity")
                continue
            out.sweeps.append(seconds)
            if index in self.checked_sweeps:
                out.kept[index] = (target, explanation, curve)
        epoch_s, self.fit_losses = fit_op(self.ops, self.tracer, self.graph,
                                          self.dataset.num_classes, self.wl.fit_epochs,
                                          self.fit_losses)
        if epoch_s is not None:
            out.epochs.append(epoch_s)

    async def stream(self, port: int, rounds) -> _Stream:
        from repro.obs import perf_snapshot

        out = _Stream()
        self.fit_losses = None
        conns = [await asyncio.open_connection("127.0.0.1", port) for _ in range(self.wl.clients)]
        before = perf_snapshot()
        try:
            for lists in rounds:
                served: list = []
                t0 = time.perf_counter()
                await asyncio.gather(*[self._client(conn, items, out, served)
                                       for conn, items in zip(conns, lists)])
                out.wall += time.perf_counter() - t0
                self._between_rounds(served, out)
        finally:
            for _, writer in conns:
                writer.close()
                await writer.wait_closed()
        after = perf_snapshot()
        flows = sum(payload["meta"]["num_flows"] for _, _, payload in out.responses)
        out.counts = {
            "ops_request": len(out.latencies), "ops_sweep": len(out.sweeps),
            "ops_fit": len(out.epochs), "targets": digest(self.plan_rounds),
            "flows_explained": flows,
            **{f"perf_{k}": after[k] - before[k] for k in (
                "flow_enumerations", "batched_rows", "explanation_cache_hits")},
        }
        return out

    def check_outputs(self, out: _Stream) -> None:
        """Flow counts of every response; sampled numpy-backend and serial
        recomputations."""
        from repro.sparse import use_backend

        for target, _, payload in out.responses:
            got = payload["meta"].get("num_flows")
            self.ops.check("check_response", None if got == self.expected_flows[target]
                           else f"node {target}: {got} flows")
        for key in self.checked_explain:
            try:
                with use_backend("numpy"):
                    reference = self.library(*key)
                problem = explanations_agree(self.reference[key], reference)
            except Exception as exc:  # a crashed check is a failed check
                problem = f"{type(exc).__name__}: {exc}"
            self.ops.check("check_explain", problem and f"{key}: {problem}")
        for index, (target, explanation, curve) in sorted(out.kept.items()):
            try:
                problem = sweeps_agree(curve, sweep(self.model, self.graph, target,
                                                    explanation, batched=False))
            except Exception as exc:  # a crashed check is a failed check
                problem = f"{type(exc).__name__}: {exc}"
            self.ops.check("check_sweep", problem and f"sweep {index}: {problem}")

    # -- whole run ---------------------------------------------------------
    async def main(self, trace: bool) -> dict:
        app, runner, first_setup = await self.setup(0)
        try:
            self.targets, flows = quantile_targets(self.graph, self.model.num_layers,
                                                   self.wl.levels)
            self.expected_flows = dict(zip(self.targets, flows))
            self.plan()
            self.references()
            # Warm-up, not counted: every target once, one sweep, one fit.
            warm = [[(t, "factual") for t in dict.fromkeys(
                t for lists in self.plan_rounds for t, _ in lists[c])]
                for c in range(self.wl.clients)]
            await self.stream(app.port, [warm])
            self.ops = Ops()

            untraced = await self.stream(app.port, self.plan_rounds)
            self.check_outputs(untraced)
            if trace:
                metrics, trace_record, kernel_counts = await self._traced(app, runner,
                                                                          untraced)
        finally:
            await app.shutdown()
        # Further cold set-ups after the stream spread setup_s over the run.
        setups = [first_setup]
        for rep in range(1, SETUP_REPEATS):
            app, _, timings = await self.setup(rep)
            await app.shutdown()
            setups.append(timings)
        loads, trains, starts = (list(col) for col in zip(*setups))
        counts = dict(untraced.counts)
        record = {"params": {**self.wl.params(), "rounds": self.rounds,
                             "targets": self.targets, "target_flows": flows},
                  "samples": {"request": len(untraced.latencies),
                              "sweep": len(untraced.sweeps), "fit": len(untraced.epochs),
                              "setup": SETUP_REPEATS}}
        if not trace:
            metrics = {
                "setup_s": p50([sum(t) for t in setups]),
                "explain_p50_ms": p50(untraced.latencies) * 1e3,
                "explain_p90_ms": p90(untraced.latencies) * 1e3,
                "explain_per_s": len(untraced.latencies) / untraced.wall,
                "sweep_p50_ms": p50(untraced.sweeps) * 1e3,
                "epoch_p50_ms": p50(untraced.epochs) * 1e3,
            }
            return {"metrics": metrics, "ops": self.ops, "counts": counts, "record": record}
        counts.update(kernel_counts)
        metrics.update({"setup.datasets.load_s": p50(loads),
                        "setup.nn.train_s": p50(trains),
                        "setup.serve.start_s": p50(starts)})
        record["trace"] = trace_record
        return {"metrics": metrics, "ops": self.ops, "counts": counts, "record": record}

    async def _traced(self, app, runner, untraced: _Stream) -> tuple[dict, dict, dict]:
        """The same stream with every layer hook installed.

        Returns ``(metrics, trace record, kernel call counts)``.
        """
        from repro.sparse import current_backend, use_backend

        tracer = self.tracer = Tracer()
        self.trace = _ServeTrace(tracer)
        hooks = Hooks(tracer)
        backend = current_backend()
        hooks.install(extra=self.trace.patches())
        runner.trace = self.trace
        try:
            with use_backend(TIMED_BACKEND):
                traced = await self.stream(app.port, self.plan_rounds)
        finally:
            runner.trace = None
            leftovers = hooks.restore()
            self.tracer = self.trace = None
        accounting_ms = accounting_error_ms(tracer.ops)
        check_trace(self.ops, leftovers, backend, accounting_ms, traced.counts,
                    untraced.counts)
        metrics = per_layer_metrics(tracer.ops)
        metrics.update(_request_metrics(traced.requests))
        metrics["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0
        record = {"accounting_max_err_ms": accounting_ms,
                  "untraced_stream_s": untraced.wall, "traced_stream_s": traced.wall}
        counts = {f"kernel_calls_{op}": n for op, n in sorted(hooks.kernel_calls.items())}
        return metrics, record, counts


def _request_metrics(requests: list) -> dict:
    """Queue / compute / wire split of each traced round trip."""
    queue, compute, wire, rest, batch = [], [], [], [], []
    for wall, span in requests:
        q = span.batch_end - span.submit - span.compute
        q = 0.0 if math.isnan(q) else q
        queue.append(q)
        compute.append(span.compute)
        wire.append(span.wire)
        rest.append(wall - q - span.compute - span.wire)
        batch.append(span.batch)
    return {
        "request.serve.queue_ms": p50(queue) * 1e3,
        "request.serve.compute_ms": p50(compute) * 1e3,
        "request.serve.wire_ms": p50(wire) * 1e3,
        "request.serve.batch_size": p50(batch),
        "request.serve.dedup_frac": sum(s.joined for _, s in requests) / len(requests),
        "request.unattributed_ms": p50(rest) * 1e3,
        "request.wall_ms": p50([w for w, _ in requests]) * 1e3,
    }


def run_serve(wl: ServeWorkload, *, seed: int, seconds: int, nominal_seconds: int,
              trace: bool, state_dir: Path) -> dict:
    runner = _ServeRunner(wl, seed, seconds, nominal_seconds, state_dir)
    return asyncio.run(runner.main(trace))
