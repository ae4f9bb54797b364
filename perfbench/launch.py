"""Start ``repro serve`` for the benchmark, optionally with per-layer timing.

Usage (from the root of a checkout)::

    python perfbench/launch.py [--trace-dir DIR] serve [repro serve flags ...]

It runs ``repro.cli.main``, which is what the ``repro`` console script runs.
First it makes SIGINT raise ``KeyboardInterrupt`` again. A benchmark started
in the background can hand its children SIGINT ignored, and the benchmark
stops servers with SIGINT, the CLI's graceful path.

With ``--trace-dir`` the layer wrappers are installed at class level before
the CLI runs, so the single-process server and every forked fleet worker
report through them. Each process writes ``DIR/records-<pid>.json`` when it
shuts down.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGINT, signal.default_int_handler)
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = Path(argv[1]), argv[2:]
    from pbench import layers
    from pbench.core import use_checkout

    use_checkout(Path.cwd())
    recorder = layers.install(trace_dir) if trace_dir is not None else None
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if recorder is not None:
            layers.dump(recorder, trace_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
