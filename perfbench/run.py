"""vaecomm benchmark: training, sweep and baseline throughput.

Run from the repository root:

    python3 perfbench/run.py --workload train_k4 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a separate
traced run that reports the per-layer metrics. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the environment record.
The full result, and the spans of a traced run, are written under
``perfbench/out/``. perfbench/README.md describes every metric.

The program under test is imported from ``src/`` of the same checkout and
nowhere else: without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json")
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed: every generated input derives from it")
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured phase of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiplies every input size; below 1 only for the smoke test")
    args = p.parse_args(argv)
    if not 0.0 < args.scale <= 1.0:
        p.error("--scale must be in (0, 1]")
    if args.seconds <= 0.0:
        p.error("--seconds must be positive")
    return args


def import_program() -> float | None:
    """Import vaecomm from this checkout's src/; the import time, or None without sources."""
    if not (SRC / "vaecomm" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import vaecomm  # noqa: F401
    return time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    if import_s is None:
        print(f"error: no vaecomm sources under {SRC}", file=sys.stderr)
        return 2

    import environment
    import tracing
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    ops = workloads.Operations()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, details = tracing.run_traced(wl, args.seed, args.scale, ops, OUT_DIR,
                                              OUT_DIR / f"{stem}.spans.json")
    else:
        metrics, details = workloads.run_untraced(wl, args.seed, args.seconds, args.scale,
                                                  ops, OUT_DIR, import_s)

    env = environment.record(ROOT, wl, args.seed, args.seconds, args.scale)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    full = dict(result, failed_frac=ops.failed / max(ops.attempted, 1), environment=env,
                failures=ops.failures, details=details)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
