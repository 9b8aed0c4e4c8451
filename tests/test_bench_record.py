"""tools/bench_record.py turns two sides' benchmark result files into one record."""

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_record.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = [901, 902, 903]
HOST = {"nproc": 2, "machine": "x86_64", "python": "3.11.7", "numpy": "2.4.6",
        "blas": {"name": "openblas", "version": "0", "threads": 1}}


def value(side: str, workload: str, metric: int, seed: int) -> float:
    """A distinct, recognisable value for every result field."""
    return (1000.0 if side == "change" else 0.0) + 100.0 * metric + seed % 10 + len(workload)


def write_results(out_dir: Path, side: str, value=value, seeds=SEEDS) -> None:
    out_dir.mkdir()
    for wl in BENCHMARK["workloads"]:
        for seed in seeds:
            metrics = {m["name"]: {"value": value(side, wl["name"], i, seed), "unit": m["unit"]}
                       for i, m in enumerate(BENCHMARK["end_to_end"])}
            result = {"correct": True, "attempted": 10, "failed": seed % 2, "metrics": metrics,
                      "environment": {"source_sha256": f"{side}-source", "seconds": 30.0,
                                      "seed": seed, **HOST}}
            (out_dir / f"{wl['name']}-seed{seed}-trace0.json").write_text(json.dumps(result))


def run_tool(tmp_path, *extra, seeds=SEEDS):
    return subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "parent"), str(tmp_path / "change"),
         "aaa111", "bbb222", "--seeds", *map(str, seeds), "--out",
         str(tmp_path / "BENCH_test.json"), *extra],
        capture_output=True, text=True, timeout=60)


def test_record_holds_both_sides_runs_and_quartiles(tmp_path):
    write_results(tmp_path / "parent", "parent")
    write_results(tmp_path / "change", "change")
    proc = run_tool(tmp_path)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_test.json").read_text())
    assert list(record) == ["parent_commit", "change_commit", "run_seconds", "seeds",
                            "first_side", "workloads", "host"]
    assert (record["parent_commit"], record["change_commit"]) == ("aaa111", "bbb222")
    assert record["run_seconds"] == 30 and isinstance(record["run_seconds"], int)
    assert record["seeds"] == SEEDS
    assert record["first_side"] == ["parent", "change", "parent"]
    assert record["host"] == HOST
    assert sorted(record["workloads"]) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for name, entry in record["workloads"].items():
        assert entry["failed"] == {"parent": [1, 0, 1], "change": [1, 0, 1]}
        assert entry["source_sha256"] == {"parent": "parent-source", "change": "change-source"}
        assert list(entry["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
        for i, m in enumerate(BENCHMARK["end_to_end"]):
            row = entry["metrics"][m["name"]]
            assert (row["unit"], row["better"], row["bound"]) == (m["unit"], m["better"],
                                                                 m["bound"])
            for side in ("parent", "change"):
                runs = [value(side, name, i, seed) for seed in SEEDS]
                q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
                assert row[side] == {"runs": runs, "median": median, "q1": q1, "q3": q3}


def test_a_missing_result_file_is_named(tmp_path):
    write_results(tmp_path / "parent", "parent")
    write_results(tmp_path / "change", "change")
    missing = tmp_path / "change" / f"train_k8-seed{SEEDS[1]}-trace0.json"
    missing.unlink()
    proc = run_tool(tmp_path)
    assert proc.returncode != 0
    assert str(missing) in proc.stderr
    assert not (tmp_path / "BENCH_test.json").exists()


def test_runs_of_different_lengths_are_refused(tmp_path):
    write_results(tmp_path / "parent", "parent")
    write_results(tmp_path / "change", "change")
    path = tmp_path / "parent" / f"eval_sweep-seed{SEEDS[0]}-trace0.json"
    result = json.loads(path.read_text())
    result["environment"]["seconds"] = 10.0
    path.write_text(json.dumps(result))
    proc = run_tool(tmp_path)
    assert proc.returncode != 0
    assert "different lengths" in proc.stderr


# per pair: the change's value is the parent's times exp(shift); 0.0 is a tie
SHIFTS = {1: 0.3, 2: 0.0, 3: 0.1, 4: 0.2, 5: -0.1}
ZERO_PAIRS = {1: (0.0, 0.0), 2: (0.0, 2e-3), 3: (1e-3, 1e-3), 4: (1e-3, 2e-3), 5: (3e-3, 2e-3)}


def shifted(side: str, workload: str, metric: int, seed: int) -> float:
    if BENCHMARK["end_to_end"][metric]["name"] == "sweep_ser":
        return ZERO_PAIRS[seed][side == "change"]
    base = 10.0 * (metric + 1) + seed
    return base * math.exp(SHIFTS[seed]) if side == "change" else base


def test_pairs_won_and_median_log_ratio_recover_a_known_shift(tmp_path):
    seeds = sorted(SHIFTS)
    write_results(tmp_path / "parent", "parent", shifted, seeds)
    write_results(tmp_path / "change", "change", shifted, seeds)
    texts = []
    for _ in range(2):  # the bootstrap is seeded: a rebuilt record is the same
        proc = run_tool(tmp_path, seeds=seeds)
        assert proc.returncode == 0, proc.stderr
        texts.append((tmp_path / "BENCH_test.json").read_text())
    assert texts[0] == texts[1]
    record = json.loads(texts[0])
    for entry in record["workloads"].values():
        for m in BENCHMARK["end_to_end"]:
            row = entry["metrics"][m["name"]]
            if m["name"] == "sweep_ser":
                # lower is better; a pair with one zero has no log ratio, two zeros tie
                assert row["pairs_won"] == {"parent": 2, "change": 1}
                assert row["median_log_ratio"] == 0.0  # of ln(2/3), 0, 0 and ln 2
                assert row["median_log_ratio_ci95"] is None  # a zero-valued metric
                continue
            # four pairs shifted by 0.3, 0.1, 0.2 and -0.1; one tie
            up, down = (3, 1) if m["better"] == "higher" else (1, 3)
            assert row["pairs_won"] == {"change": up, "parent": down}
            assert math.isclose(row["median_log_ratio"], 0.1, rel_tol=1e-12)
            low, high = row["median_log_ratio_ci95"]
            assert -0.1 - 1e-12 <= low < 0.1 < high <= 0.3 + 1e-12

