"""tools/bench_pairs.py runs stub checkouts in alternating order and records them."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEEDS = [701, 702, 703, 704]

# A stand-in for perfbench/run.py: it appends "side workload seed" to the shared
# log, writes a result file whose every metric is the seed (plus 1 on the change
# side), and exits with status 3 for the seed named in the checkout's FAIL file.
STUB = '''
import argparse, json, sys
from pathlib import Path
root = Path(__file__).resolve().parents[1]
p = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(name, required=True)
a = p.parse_args()
assert a.trace == "0"
with open(root.parent / "order.log", "a") as log:
    log.write(f"{root.name} {a.workload} {a.seed}\\n")
if (root / "FAIL").is_file() and (root / "FAIL").read_text() == a.seed:
    sys.exit(3)
spec = json.loads((root / "BENCHMARK.json").read_text())
value = int(a.seed) + (root.name == "change")
result = {"failed": 0, "environment": {
    "source_sha256": root.name, "seconds": float(a.seconds), "nproc": 2, "machine": "x86_64",
    "python": "3", "numpy": "2", "blas": "stub"},
    "metrics": {m["name"]: {"value": value} for m in spec["end_to_end"]}}
out = root / "perfbench" / "out"
out.mkdir(exist_ok=True)
(out / f"{a.workload}-seed{a.seed}-trace0.json").write_text(json.dumps(result))
'''


def checkouts(tmp_path):
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(STUB)
        (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))


def run_tool(tmp_path):
    return subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "parent"), str(tmp_path / "change"),
         "aaa111", "bbb222", "--seeds", *map(str, SEEDS),
         "--out", str(tmp_path / "BENCH_test.json")],
        capture_output=True, text=True, timeout=120)


def test_pairs_alternate_the_first_side_and_the_record_says_so(tmp_path):
    checkouts(tmp_path)
    proc = run_tool(tmp_path)
    assert proc.returncode == 0, proc.stderr
    ran = (tmp_path / "order.log").read_text().split("\n")[:-1]
    expected = []
    for workload in WORKLOADS:
        for i, seed in enumerate(SEEDS):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            expected += [f"{side} {workload} {seed}" for side in sides]
    assert ran == expected
    record = json.loads((tmp_path / "BENCH_test.json").read_text())
    assert record["first_side"] == ["parent", "change", "parent", "change"]
    assert (record["parent_commit"], record["change_commit"]) == ("aaa111", "bbb222")
    assert record["run_seconds"] == BENCHMARK["run_seconds"]
    assert sorted(record["workloads"]) == sorted(WORKLOADS)
    row = record["workloads"]["train_k4"]["metrics"]["train_symbols_per_s"]
    assert row["parent"]["runs"] == SEEDS
    assert row["change"]["runs"] == [s + 1 for s in SEEDS]
    assert row["pairs_won"] == {"parent": 0, "change": 4}


def test_a_failed_run_stops_the_pairs_and_writes_no_record(tmp_path):
    checkouts(tmp_path)
    (tmp_path / "change" / "FAIL").write_text(str(SEEDS[1]))
    proc = run_tool(tmp_path)
    assert proc.returncode != 0
    assert str(tmp_path / "change") in proc.stderr and "exit 3" in proc.stderr
    # pair 2 runs the change first, so the run after its failure never starts
    first = WORKLOADS[0]
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        f"parent {first} {SEEDS[0]}", f"change {first} {SEEDS[0]}",
        f"change {first} {SEEDS[1]}"]
    assert not (tmp_path / "BENCH_test.json").exists()
