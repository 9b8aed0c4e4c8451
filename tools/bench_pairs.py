"""Run the benchmark in two checkouts pair by pair, then write their BENCH_<topic>.json record.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR PARENT_SHA CHANGE_SHA \\
        --seeds 15001 15002 ... --out BENCH_<topic>.json

For every workload in BENCHMARK.json and every seed in order, pair i runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` (T is
BENCHMARK.json's ``run_seconds``) in both checkouts, one after the other:
the parent first when i is even (0-based), the change first when it is odd,
the order ``bench_record.py`` records. A side that always ran first would
carry whatever the order does to it, and ``setup_s`` is bimodal on some hosts.
Each run leaves its result file in its checkout's ``perfbench/out/``. A run
that fails stops the runner before the next one, and no record is written.
The record is then built from the two out directories as ``bench_record.py``
builds it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import bench_record


def run_pairs(checkouts: dict[str, Path], workloads: list[str], seeds: list[int],
              seconds: float) -> None:
    for workload in workloads:
        for i, seed in enumerate(seeds):
            for side in bench_record.pair_order(i):
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
                print(f"pair {i + 1}/{len(seeds)} {workload} seed {seed}: {side}", flush=True)
                proc = subprocess.run(cmd, cwd=checkouts[side], capture_output=True, text=True)
                if proc.returncode != 0:
                    raise SystemExit(f"error: {' '.join(cmd[1:])} failed in "
                                     f"{checkouts[side]} (exit {proc.returncode}):\n"
                                     f"{proc.stderr}")


def main(argv=None) -> int:
    benchmark = json.loads(bench_record.BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path, help="the parent's checkout")
    parser.add_argument("change_dir", type=Path, help="the change's checkout")
    parser.add_argument("parent_sha", help="the parent commit id")
    parser.add_argument("change_sha", help="the measured change commit id")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="the workload seeds, one per pair, in run order")
    parser.add_argument("--out", type=Path, required=True, help="the record to write")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    checkouts = {"parent": args.parent_dir, "change": args.change_dir}
    run_pairs(checkouts, [w["name"] for w in benchmark["workloads"]], args.seeds,
              benchmark["run_seconds"])
    return bench_record.main([
        str(checkouts["parent"] / "perfbench" / "out"), str(checkouts["change"] / "perfbench" / "out"),
        args.parent_sha, args.change_sha, "--seeds", *map(str, args.seeds),
        "--out", str(args.out)])


if __name__ == "__main__":
    sys.exit(main())
