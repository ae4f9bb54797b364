"""Shared plumbing: checkout layout, statistics, /proc readings, history.

Nothing here imports the program under test; the workloads import
``repro`` only after :func:`use_checkout` has put the checkout's ``src``
first on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent.parent

#: Clock ticks per second for /proc/<pid>/stat CPU fields.
_TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, server did not start)."""


class CheckFailed(RuntimeError):
    """The program answered, but an output check failed."""


def use_checkout(root: Path) -> Path:
    """Put ``root/src`` first on ``sys.path``; fail if the program is absent.

    The benchmark never falls back to an installed ``repro``: a directory
    holding only the benchmark's own files must not produce a result.
    """
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {src} (expected src/repro)")
    sys.path.insert(0, str(src))
    return src


def child_env(root: Path, work: Path) -> dict[str, str]:
    """Environment for program subprocesses: checkout sources, local temp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(work)
    return env


def make_work_dir(root: Path, name: str) -> Path:
    """A fresh scratch directory inside the checkout for one run."""
    work = BENCH_DIR / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of a non-empty sample."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell–Davis estimate of quantile ``q``: a Beta-weighted mean of
    all order statistics, concentrated around rank ``q * n``.

    Latencies of a stalled transport cluster on kernel timer ticks (4 ms
    apart here), so the plain sample median of a run jumps a whole tick
    when the median falls between two clusters.  The Harrell–Davis
    estimate moves smoothly with the share of samples in each cluster.
    """
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0:
        raise ValueError("quantile of an empty sample")
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    edges = betainc(a, b, np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def tail_percentile(n: int) -> int | None:
    """Highest of p99/p95/p90/p50 with at least ten samples beyond it."""
    for pct in (99, 95, 90, 50):
        if n * (100 - pct) / 100.0 >= 10:
            return pct
    return None


def latency_summary(values: list[float]) -> dict[str, float | int | None]:
    """Median, p95, p99 and the supported tail of a latency sample (ms)."""
    if not values:
        return {"n": 0}
    tail = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": median(values),
        "p95": quantile(values, 0.95),
        "p99": quantile(values, 0.99),
        "tail_pct": tail,
        "tail": quantile(values, tail / 100.0) if tail else None,
        "beyond_p95": int(len(values) * 0.05),
        "beyond_p99": int(len(values) * 0.01),
    }


# ----------------------------------------------------------------------
# /proc readings
# ----------------------------------------------------------------------
def peak_rss_mib(pid: int | None = None) -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {path}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a process has used (all its threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at index 3 (state); utime and
    # stime are fields 14 and 15 of the full line.
    return (int(fields[11]) + int(fields[12])) / _TICKS


# ----------------------------------------------------------------------
# Run metadata and history
# ----------------------------------------------------------------------
def tree_digest(root: Path, paths: list[Path]) -> str:
    """SHA-256 over files (names and bytes), relative to ``root``."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def src_digest(root: Path) -> str:
    """Identifies the program run: its Python sources."""
    return tree_digest(root, list((root / "src").rglob("*.py")))


def bench_digest() -> str:
    """Identifies the benchmark run: its code and ``BENCHMARK.json``."""
    root = BENCH_DIR.parent
    return tree_digest(root, [*BENCH_DIR.glob("pbench/*.py"), BENCH_DIR / "run.py",
                              BENCH_DIR / "launch.py", root / "BENCHMARK.json"])


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_info(root: Path) -> dict[str, object]:
    """What a history record needs to compare runs: code, host, libraries."""
    return {
        "git_sha": git_sha(root),
        "src_digest": src_digest(root),
        "bench_digest": bench_digest(),
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def history_path() -> Path:
    return Path(os.environ.get("PERFBENCH_HISTORY", BENCH_DIR / "history.jsonl"))


def append_history(record: dict) -> Path:
    """Append one run record (one JSON line) to the benchmark history."""
    path = history_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then ``sw.seconds``."""

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = time.perf_counter() - self._start
