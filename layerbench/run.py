"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 layerbench/run.py --workload revelio_cora --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's fixed operation list untraced and
prints the end-to-end metrics of ``BENCHMARK.json``. ``--trace 1`` runs
the same list untraced and then traced, and prints the per-layer metrics
and ``trace.overhead_frac``. ``--seconds`` sizes the operation list
(rounds scale with it); elapsed time never changes what runs. The last
line of standard output is the result; the line before it is the run
record (environment, parameters, sample counts, calibration, identity
counts). The library is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS and OpenMP to one thread before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".bench_state"
WORKLOADS = ("revelio_cora", "serve_flowx", "cora5_eval")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _expected_metrics(spec: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Only the current API is exercised: a deprecated call is a bug here.
    warnings.filterwarnings("error", category=DeprecationWarning,
                            module=r"(repro|layerbench|__main__)(\.|$)")

    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    from layerbench.common import (calibrate, check_identity, environment,
                                   peak_rss_mb)

    run_dir = STATE_DIR / f"run-{os.getpid()}"
    calibration = calibrate()
    try:
        out = _run(args, spec, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    ops = out["ops"]
    metrics = out["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    env = environment(ROOT)
    key = f"{args.workload}-seed{args.seed}-seconds{args.seconds}-src{env['src_digest']}"
    ops.check("identity", check_identity(STATE_DIR, key, out["counts"],
                                         store=ops.total_failed == 0))

    expected = _expected_metrics(spec, bool(args.trace))
    if set(metrics) != set(expected):
        print(f"error: metrics {sorted(set(metrics) ^ set(expected))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **out["record"],
        "environment": env, "calibration": calibration,
        "attempted": ops.attempted, "failed": ops.failed, "failures": ops.notes,
        "identity": out["counts"],
    }
    print(json.dumps({"run_record": record}, sort_keys=True))
    result = {
        "correct": ops.total_failed == 0,
        "attempted": ops.total_attempted,
        "failed": ops.total_failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in expected.items()},
    }
    print(json.dumps(result))
    return 0


def _run(args, spec: dict, run_dir: Path) -> dict:
    kwargs = dict(seed=args.seed, seconds=args.seconds,
                  nominal_seconds=int(spec["run_seconds"]), trace=bool(args.trace),
                  state_dir=run_dir)
    if args.workload == "serve_flowx":
        from layerbench.serve import SERVE_FLOWX, run_serve

        return run_serve(SERVE_FLOWX, **kwargs)
    from layerbench.library import CORA5_EVAL, REVELIO_CORA, run_library

    workload = REVELIO_CORA if args.workload == "revelio_cora" else CORA5_EVAL
    return run_library(workload, **kwargs)


if __name__ == "__main__":
    sys.exit(main())
