"""The stamp every result file carries, so that a number from another
host, commit or scale is never compared silently."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from repro.engine.kernels import resolve_kernel
from repro.engine.parallel import available_cpus

from benchmarks.e2e.workloads import config_hash

REPO_ROOT = Path(__file__).resolve().parents[2]


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(seed: int, seconds: float, smoke: bool) -> dict:
    return {
        "git_sha": git_sha(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "available_cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": resolve_kernel("auto"),
        "config_hash": config_hash(),
    }
