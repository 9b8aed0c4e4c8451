"""tools/gate_lines.py runs stub checkouts' acceptance files and compares their verdicts."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "gate_lines.py"

# A stand-in for tests/test_acceptance.py: it logs its side and environment,
# counts the stub runs in progress, and prints its gate lines. Gate 2's
# detail differs between the sides, which is no verdict difference; gate 3
# fails on the change side under Haswell. The change side never prints gate 4.
STUB = '''
import json, os, time
from pathlib import Path

def test_gates():
    root = Path(__file__).resolve().parents[1]
    running = root.parent / "running"
    running.mkdir(exist_ok=True)
    me = running / f"{root.name}-{os.getpid()}"
    me.touch()
    seen = len(list(running.iterdir()))
    time.sleep(0.5)
    me.unlink()
    import marker
    with open(root.parent / "runs.log", "a") as log:
        log.write(json.dumps({"side": root.name, "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                              "coretype": os.environ.get("OPENBLAS_CORETYPE"),
                              "src": marker.SIDE, "seen": seen}) + "\\n")
    change, haswell = root.name == "change", os.environ.get("OPENBLAS_CORETYPE") == "Haswell"
    print("ACCEPTANCE 1 first: PASS (same)")
    print(f"ACCEPTANCE 2 second: PASS (value {1 + change})")
    print(f"ACCEPTANCE 3 third: {'FAIL' if change and haswell else 'PASS'} (x)")
    if not change:
        print("ACCEPTANCE 4 fourth: PASS (only the parent)")
'''


def checkouts(tmp_path):
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "tests").mkdir(parents=True)
        (root / "src").mkdir()
        (root / "tests" / "test_acceptance.py").write_text(STUB)
        (root / "src" / "marker.py").write_text(f"SIDE = {side!r}\n")


def test_runs_both_kernels_two_at_a_time_and_marks_what_differs(tmp_path, monkeypatch):
    checkouts(tmp_path)
    monkeypatch.setenv("OPENBLAS_CORETYPE", "SkylakeX")  # the default run must unset it
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "parent"),
                           str(tmp_path / "change")], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 1, proc.stderr
    runs = [json.loads(line) for line in (tmp_path / "runs.log").read_text().splitlines()]
    assert sorted((r["side"], r["coretype"] or "unset") for r in runs) == [
        ("change", "Haswell"), ("change", "unset"), ("parent", "Haswell"), ("parent", "unset")]
    assert all(r["threads"] == "1" and r["src"] == r["side"] for r in runs)
    assert max(r["seen"] for r in runs) <= 2
    out = proc.stdout.splitlines()
    for kernel in ("default", "Haswell"):
        block = out[out.index(f"== {kernel} kernel, OPENBLAS_NUM_THREADS=1 =="):][:11]
        assert block[1].startswith("   parent: ") and block[2].startswith("   change: ")
        assert block[3:5] == ["  parent ACCEPTANCE 1 first: PASS (same)",
                              "  change ACCEPTANCE 1 first: PASS (same)"]
        assert block[5:7] == ["  parent ACCEPTANCE 2 second: PASS (value 1)",
                              "  change ACCEPTANCE 2 second: PASS (value 2)"]
        third = "!" if kernel == "Haswell" else " "
        assert block[7:9] == [f"{third} parent ACCEPTANCE 3 third: PASS (x)",
                              f"{third} change ACCEPTANCE 3 third: "
                              f"{'FAIL' if kernel == 'Haswell' else 'PASS'} (x)"]
        assert block[9:11] == ["! parent ACCEPTANCE 4 fourth: PASS (only the parent)",
                               "! change ACCEPTANCE 4: (no line)"]


def test_a_checkout_without_the_acceptance_file_is_a_usage_error(tmp_path):
    checkouts(tmp_path)
    (tmp_path / "change" / "tests" / "test_acceptance.py").unlink()
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "parent"),
                           str(tmp_path / "change")], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert "change checkout" in proc.stderr
    assert not (tmp_path / "runs.log").exists()
