"""Write a BENCH_<topic>.json record from the result files of paired benchmark runs.

Each side, the parent commit and the change, ran ``perfbench/run.py --trace 0``
once per workload and seed, and left its files in its own
``perfbench/out/``. Pair i ran the parent first when i is even (0-based).

    python3 tools/bench_record.py PARENT_OUT CHANGE_OUT PARENT_SHA CHANGE_SHA \\
        --seeds 15001 15002 ... --out BENCH_<topic>.json

``tools/bench_pairs.py`` runs the pairs in that order and then calls this.
For every workload and end-to-end metric in BENCHMARK.json, the record holds
both sides' per-run values in seed order, their median and quartiles
(``statistics.quantiles(..., n=4, method="inclusive")``), and the metric's unit,
direction and bound. Pairs are compared run by run: ``pairs_won`` counts the
pairs each side won in the metric's better direction (a tie counts for
neither), and ``median_log_ratio`` is the median over pairs of
ln(change / parent), 0 for equal values; a pair with a value of 0 or less
and unequal values has no log ratio and is left out of that median, which is
null when no pair has one. ``median_log_ratio_ci95`` is a bootstrap 95%
interval for that median: the 2.5% and 97.5% quantiles of the medians of
``BOOTSTRAP_RESAMPLES`` resamples of the pairs' log ratios, drawn with
replacement from a generator seeded with ``BOOTSTRAP_SEED``, so a record
rebuilt from the same files holds the same interval. A metric with a value of
0 or less in any run gets no interval (null): a log ratio needs positive
values on both sides. It also holds the failed-operation counts, each side's
``source_sha256``, the run length, the seeds, the side that ran first in each
pair and the host record of the change's first run.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
HOST_FIELDS = ("nproc", "machine", "python", "numpy", "blas")
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 20201
SIDES = ("parent", "change")


def pair_order(i: int) -> tuple[str, str]:
    """The sides of pair ``i`` (0-based) in the order they ran."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def load_runs(out_dir: Path, workload: str, seeds: list[int]) -> list[dict]:
    runs = []
    for seed in seeds:
        path = out_dir / f"{workload}-seed{seed}-trace0.json"
        if not path.is_file():
            raise SystemExit(f"error: no result file {path}")
        runs.append(json.loads(path.read_text()))
    sources = {r["environment"]["source_sha256"] for r in runs}
    if len(sources) != 1:
        raise SystemExit(f"error: the {workload} runs in {out_dir} come from "
                         f"{len(sources)} different sources")
    return runs


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def log_ratio(parent: float, change: float) -> float | None:
    if parent == change:
        return 0.0
    return math.log(change / parent) if parent > 0 and change > 0 else None


def bootstrap_interval(ratios: list[float]) -> list[float]:
    """The seeded bootstrap 95% interval for the median of ``ratios``."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios)))
               for _ in range(BOOTSTRAP_RESAMPLES)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")  # 2.5% steps
    return [cuts[0], cuts[-1]]


def paired(parent: list[float], change: list[float], better: str) -> dict:
    """Pairs won by each side in the better direction, the median per-pair
    log ratio and its bootstrap interval."""
    sign = 1 if better == "higher" else -1
    wins = {"parent": 0, "change": 0}
    for p, c in zip(parent, change):
        if p != c:
            wins["change" if sign * (c - p) > 0 else "parent"] += 1
    ratios = [r for r in map(log_ratio, parent, change) if r is not None]
    positive = all(v > 0 for v in parent + change)
    return {"pairs_won": wins,
            "median_log_ratio": statistics.median(ratios) if ratios else None,
            "median_log_ratio_ci95": bootstrap_interval(ratios) if positive else None}


def build_record(out_dirs: dict[str, Path], commits: dict[str, str], seeds: list[int],
                 benchmark: dict) -> dict:
    workloads = {}
    run_seconds = set()
    for workload in sorted(w["name"] for w in benchmark["workloads"]):
        results = {side: load_runs(d, workload, seeds) for side, d in out_dirs.items()}
        run_seconds |= {r["environment"]["seconds"] for runs in results.values() for r in runs}
        metrics = {}
        for m in benchmark["end_to_end"]:
            row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            for side, runs in results.items():
                row[side] = summary([r["metrics"][m["name"]]["value"] for r in runs])
            row.update(paired(row["parent"]["runs"], row["change"]["runs"], m["better"]))
            metrics[m["name"]] = row
        workloads[workload] = {
            "failed": {side: [r["failed"] for r in runs] for side, runs in results.items()},
            "source_sha256": {side: runs[0]["environment"]["source_sha256"]
                              for side, runs in results.items()},
            "metrics": metrics,
        }
    if len(run_seconds) != 1:
        raise SystemExit(f"error: runs of different lengths: {sorted(run_seconds)} s")
    (seconds,) = run_seconds
    return {
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "run_seconds": int(seconds) if float(seconds).is_integer() else seconds,
        "seeds": seeds,
        "first_side": [pair_order(i)[0] for i in range(len(seeds))],
        "workloads": workloads,
        "host": {k: results["change"][0]["environment"][k] for k in HOST_FIELDS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_out", type=Path, help="the parent's perfbench/out directory")
    parser.add_argument("change_out", type=Path, help="the change's perfbench/out directory")
    parser.add_argument("parent_sha", help="the parent commit id")
    parser.add_argument("change_sha", help="the measured change commit id")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="the workload seeds, one per pair, in run order")
    parser.add_argument("--out", type=Path, required=True, help="the record to write")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    record = build_record({"parent": args.parent_out, "change": args.change_out},
                          {"parent": args.parent_sha, "change": args.change_sha},
                          args.seeds, json.loads(BENCHMARK.read_text()))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out} ({len(args.seeds)} pairs, {len(record['workloads'])} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
