"""Environment record written next to every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

import vaecomm
from vaecomm.evaluation import THREADS_ENV_VAR, resolve_worker_count

import workloads

# OpenBLAS exports its thread query under a build-specific name.
_BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Thread count of the BLAS that numpy's core extension links."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:
        from numpy.core import _multiarray_umath as core
    lib = ctypes.CDLL(core.__file__)
    for name in _BLAS_THREAD_QUERIES:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_sha256(root: Path) -> str:
    """Digest of the program's sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "vaecomm").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def record(root: Path, wl, seed: int, seconds: float, scale: float) -> dict:
    offset_db = 10.0 * math.log10(workloads.LATENT_MULT)
    return {
        "workload": wl.name,
        "workload_config": asdict(wl),
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "vaecomm": vaecomm.__version__,
        "blas": blas_info(),
        "eval_workers": resolve_worker_count(),
        THREADS_ENV_VAR: os.environ.get(THREADS_ENV_VAR),
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "block_length": workloads.L,
        "transfer_block_length": workloads.TRANSFER_L,
        # the power norm spreads unit power over latent_mult * n real
        # dimensions while the noise follows R = k/n, so the transmitted
        # Eb/N0 sits 10 log10(latent_mult) dB above the nominal label
        "sweep_points": [
            {"ebno_db_nominal": p, "ebno_db_actual": p + offset_db}
            for p in wl.sweep_points
        ],
        "transfer_point": {"ebno_db_nominal": workloads.TRANSFER_EBNO_DB,
                           "ebno_db_actual": workloads.TRANSFER_EBNO_DB + offset_db},
        "train_point": {"ebno_db_nominal": workloads.TRAIN_EBNO_DB,
                        "ebno_db_actual": workloads.TRAIN_EBNO_DB + offset_db},
    }
