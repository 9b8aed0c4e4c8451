"""Run the acceptance gates in two checkouts on two BLAS kernels and print their verdicts side by side.

    python3 tools/gate_lines.py PARENT_DIR CHANGE_DIR

Each checkout runs ``python -m pytest -q -s tests/test_acceptance.py`` with
its own ``src`` on ``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``, once on
OpenBLAS's default kernel (``OPENBLAS_CORETYPE`` unset) and once under
``OPENBLAS_CORETYPE=Haswell``, its AVX2 kernel. Trained float32 bits depend on
the kernel, so the two kernels show which verdicts move with the kernel alone.
The four runs go two at a time, in the order default parent,
default change, Haswell parent, Haswell change, so the two sides of a kernel
run side by side and share the host's load.

For every kernel and every ``ACCEPTANCE n`` line the two sides printed, the
parent's line is shown above the change's. A gate whose PASS/FAIL differs
between the sides, or that one side never printed, is marked ``!``. The exit
status is 1 when a verdict differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

KERNELS = {"default": None, "Haswell": "Haswell"}
SIDES = ("parent", "change")
COMMAND = ("-m", "pytest", "-q", "-s", "tests/test_acceptance.py")
LINE = re.compile(r"ACCEPTANCE (\d+) ([^:]*): (PASS|FAIL) \((.*)\)\s*$")


def gate_env(checkout: Path, coretype: str | None) -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout.resolve() / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_gates(checkout: Path, coretype: str | None) -> tuple[dict[int, tuple[str, str]], str]:
    """The checkout's gate lines, {n: (verdict, line)}, and a one-line summary
    of the run: pytest's last line, its exit status and the wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *COMMAND], cwd=checkout, capture_output=True,
                          text=True, env=gate_env(checkout, coretype))
    lines = {}
    for text in proc.stdout.splitlines():
        match = LINE.search(text)
        if match:
            lines[int(match[1])] = (match[3], match[0].rstrip())
    last = (proc.stdout.strip().splitlines() or ["no output"])[-1].strip("= ")
    return lines, f"{last}; exit {proc.returncode}; {time.perf_counter() - start:.0f} s wall"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path, help="the parent's checkout")
    parser.add_argument("change_dir", type=Path, help="the change's checkout")
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (args.parent_dir, args.change_dir)))
    for side, checkout in checkouts.items():
        if not (checkout / COMMAND[-1]).is_file():
            parser.error(f"{side} checkout {checkout} has no {COMMAND[-1]}")
    jobs = [(kernel, side) for kernel in KERNELS for side in SIDES]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(zip(jobs, pool.map(
            lambda job: run_gates(checkouts[job[1]], KERNELS[job[0]]), jobs)))
    differs = False
    for kernel in KERNELS:
        print(f"== {kernel} kernel, OPENBLAS_NUM_THREADS=1 ==")
        for side in SIDES:
            print(f"   {side}: {results[kernel, side][1]}")
        parent, change = (results[kernel, side][0] for side in SIDES)
        for n in sorted(parent.keys() | change.keys()):
            verdicts = {lines[n][0] if n in lines else None for lines in (parent, change)}
            m = "!" if len(verdicts) > 1 else " "
            differs |= m == "!"
            for side, lines in zip(SIDES, (parent, change)):
                text = lines[n][1] if n in lines else f"ACCEPTANCE {n}: (no line)"
                print(f"{m} {side:<6} {text}")
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
