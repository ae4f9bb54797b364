"""Self-tests of the benchmark: its contract, not the program's speed.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each workload runs once in short mode untraced and once traced (about
three minutes in all on a 2-core host).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from pbench.core import hd_quantile, quantile, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Runnable, but not in BENCHMARK.json: its wall time follows the host's speed.
UNGATED = ["paper-1k"]
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _run(tmp_path: Path, *args: str, cwd: Path = ROOT,
         ignore_sigint: bool = False) -> subprocess.CompletedProcess:
    env = dict(os.environ, PERFBENCH_HISTORY=str(tmp_path / "history.jsonl"))
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
        # A shell's background jobs start with SIGINT ignored.
        preexec_fn=(lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
        if ignore_sigint else None,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def _history(tmp_path: Path) -> list[dict]:
    lines = (tmp_path / "history.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


@pytest.mark.parametrize("workload", WORKLOADS + UNGATED)
def test_short_run_prints_every_end_to_end_metric(tmp_path, workload):
    result = _result(_run(tmp_path, "--workload", workload, "--seed", "3",
                          "--seconds", "2", "--trace", "0", "--short"))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"]) and reported["value"] > 0
    (record,) = _history(tmp_path)
    assert record["workload"] == workload and record["seed"] == 3
    for key in ("src_digest", "bench_digest", "cores", "numpy", "end_to_end",
                "report", "phases"):
        assert record[key] is not None
    assert record["phases"]["timed"]["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS + UNGATED)
def test_traced_run_records_every_per_layer_metric(tmp_path, workload):
    result = _result(_run(tmp_path, "--workload", workload, "--seed", "4",
                          "--seconds", "2", "--trace", "1", "--short"))
    assert list(result["metrics"]) == list(LAYER_UNITS)
    for name, unit in LAYER_UNITS.items():
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(result["metrics"][name]["value"])
    (record,) = _history(tmp_path)
    assert set(record["per_layer"]) == set(LAYER_UNITS)
    assert record["per_layer"]["trace.overhead"] > 0
    if workload == "paper-1k":
        assert record["per_layer"]["lstm.fit_s"] > 0
    else:
        layer = record["per_layer"]
        assert layer["service.handle_p50_ms"] > 0
        assert layer["ladder.score_ms"] > 0
        assert layer["http.server_ms"] > 0 and layer["http.outside_ms"] > 0
    if workload == "serve-distinct":
        # The research layers come from one traced pipeline in this run.
        assert record["per_layer"]["lstm.fit_s"] > 0
        assert record["per_layer"]["recommend.window_s"] > 0
        assert record["phases"]["research_traced"]["succeeded"] == 1
    if workload == "fleet-mixed":
        assert record["per_layer"]["router.forward_ms"] > 0
        assert record["per_layer"]["registry.swap_ms"] > 0
        assert record["report"]["publishes"] == 2
        assert len(record["report"]["converge_ms"]) == 2


def test_servers_stop_gracefully_when_sigint_is_inherited_ignored(tmp_path):
    started = time.monotonic()
    _result(_run(tmp_path, "--workload", "serve-distinct", "--seed", "5",
                 "--seconds", "1", "--trace", "0", "--short", ignore_sigint=True))
    # Each of the three servers would otherwise sit out the 30 s stop timeout.
    assert time.monotonic() - started < 60


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_quantile_helpers():
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert tail_percentile(1000) == 99
    assert tail_percentile(200) == 95
    assert tail_percentile(19) is None
    # Two tick-quantized clusters: the Harrell-Davis median lies between.
    clustered = [48.0] * 160 + [52.0] * 166
    assert 48.0 < hd_quantile(clustered, 0.5) < 52.0
    assert hd_quantile([5.0] * 50, 0.95) == pytest.approx(5.0)
