"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-distinct --seed 1 --seconds 10 --trace 0

Workloads: ``serve-distinct``, ``fleet-mixed``, ``paper-1k`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of standard
output is a JSON object holding every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer metric,
taken from a traced run that follows an untraced one.  Every run appends
one record to ``perfbench/history.jsonl`` (``PERFBENCH_HISTORY`` overrides
the path).  Exit codes: 0 ok, 1 an output check failed, 2 the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

from pbench.core import (
    BenchError,
    CheckFailed,
    append_history,
    child_env,
    host_info,
    make_work_dir,
    use_checkout,
)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="smaller inputs, for the benchmark's self-tests")
    return parser.parse_args(argv)


def _metrics(spec: list[dict], values: dict[str, float]) -> dict[str, dict]:
    out = {}
    for metric in spec:
        value = values.get(metric["name"])
        if value is None or not math.isfinite(value):
            raise BenchError(f"metric {metric['name']} was not measured ({value})")
        out[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    return out


def main(argv: list[str]) -> int:
    args = _parse(argv)
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        use_checkout(root)
        from pbench.workloads import Context, WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(WORKLOADS)}")
        work = make_work_dir(root, args.workload)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # A terminated run still stops its servers (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Everything the run and its server processes write stays in the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    ctx = Context(root=root, work=work, env=child_env(root, work), seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace), short=args.short)
    started = time.time()
    try:
        result = WORKLOADS[args.workload](ctx)
        if args.trace:
            metrics = _metrics(spec["per_layer"], result.layers or {})
        else:
            metrics = _metrics(spec["end_to_end"], result.e2e)
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    record = {
        "ts": started,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
        **host_info(root),
        "end_to_end": result.e2e,
        "report": result.report,
        "inputs": result.inputs,
        "phases": result.phases,
        "per_layer": result.layers,
    }
    append_history(record)
    print(f"workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{k}={v:.4g}" for k, v in result.e2e.items()))
    print("report: " + json.dumps(result.report, sort_keys=True, default=str))
    print("inputs: " + json.dumps(result.inputs, sort_keys=True))
    print("phases: " + json.dumps(result.phases, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": max(1, result.attempted),
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
