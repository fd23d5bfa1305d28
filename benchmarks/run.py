"""Benchmark entry point.

    python3 benchmarks/run.py --workload arith_right --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from --seed, checks every answer against an
expectation that does not come from the engine, and prints one JSON object
as the last line of standard output: with --trace 0 the end-to-end metrics
of a timed closed loop, with --trace 1 the per-layer metrics of a traced run.
The engine is imported from the checkout's own src/ directory; without it
the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# the limit the derivparse CLI and the test suite set
RECURSION_LIMIT = 20000

UNITS = {
    "setup_s": "s",
    "tokens_per_s": "tokens/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_engine() -> bool:
    sys.path.insert(0, str(SRC))
    try:
        import derivparse
    except ImportError as e:
        print(f"error: cannot import derivparse from {SRC}: {e}", file=sys.stderr)
        return False
    where = Path(derivparse.__file__).resolve()
    if SRC.resolve() not in where.parents:
        print(f"error: derivparse imported from {where}, not {SRC}", file=sys.stderr)
        return False
    return True


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("arith_right", "left_nested", "forest_consumers",
                             "random_grammars"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not _import_engine():
        return 2
    sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))
    import measure
    import tracing
    import workloads

    wl = workloads.build(args.workload, args.seed)
    if args.trace:
        res = tracing.traced_run(wl, args.seed, HERE / "out")
        metrics = {k: {"value": v, "unit": tracing.unit(k)}
                   for k, v in res["metrics"].items()}
    else:
        res = measure.timed_run(wl, args.seconds)
        metrics = {k: {"value": res[k], "unit": u} for k, u in UNITS.items()}
        fraction = res["failed"] / res["attempted"]
        print(f"{wl.name}: closed loop, 1 client, {res['requests']} inputs x "
              f"{res['passes']} passes; an input's latency is its fastest pass; "
              f"times at reference speed (plain wall time in brackets)")
        for k, m in metrics.items():
            wall = f" ({res['wall'][k]:.6g})" if k in res["wall"] else ""
            print(f"  {k:16} {m['value']:.6g} {m['unit']}{wall}")
        print(f"  {'failed_fraction':16} {fraction:.6g} "
              f"({res['failed']}/{res['attempted']})")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
