"""The benchmark's view of ``src/`` still resolves.

``perfbench/`` drives the program from outside: in traced runs
``pbench.layers.install`` wraps public methods of the serving classes by
name, and every run builds the ``ServiceConfig`` that ``repro serve``'s
CLI defaults produce (``pbench.workloads._cli_service_config``).  A
refactor that deletes a wrapped method, a ``serve`` flag or a config field
would only surface when the benchmark runs; this test makes it fail here.
It runs in a subprocess so the class-level wrappers never leak into the
rest of the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import tempfile
from pathlib import Path
from pbench import layers, workloads
with tempfile.TemporaryDirectory() as tmp:
    layers.install(Path(tmp))
config = workloads._cli_service_config()
print("ok", config.batch_window_ms, config.topk_cache_size, config.similarity)
"""


def test_traced_wrappers_and_cli_config_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok "), proc.stdout
