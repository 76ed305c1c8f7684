"""Run ``repro serve`` with layer spans recorded from outside.

Usage::

    python perfbench/serve_launcher.py TRACE_OUT serve [serve flags...]

Installs the :mod:`perfbench.tracing` wrappers, then hands the remaining
arguments to ``repro.cli.main``.  Spans stay in memory; they are written
to ``TRACE_OUT`` (atomically, as JSON) when the process receives
``SIGUSR1`` -- so a server about to be SIGKILLed can be asked for its
spans first -- and again when the server exits normally.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracing import Tracer

    trace_out, serve_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()

    def dump(*_):
        tracer.dump(trace_out, {"cpu_s": time.process_time()})

    signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
