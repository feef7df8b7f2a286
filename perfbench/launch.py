"""Traced launcher: run the program with its layer boundaries wrapped.

Usage::

    python perfbench/launch.py SPANS_FILE REQUEST_ID cli ARGS...
    python perfbench/launch.py SPANS_FILE REQUEST_ID server ARGS...

``cli`` calls ``repro.experiments.__main__.main(ARGS)``; ``server`` calls
``repro.server.main(ARGS)``, which returns after SIGINT.  Either way the
spans are written to SPANS_FILE as JSON lines once the program returns,
and the process exits with the program's exit code.  ``repro`` must be
importable (the benchmark sets ``PYTHONPATH``).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder, install  # noqa: E402


def main(argv: list[str]) -> int:
    spans_file, request, mode, *program_args = argv
    recorder = SpanRecorder(request)
    install(recorder, server=mode == "server")
    try:
        if mode == "cli":
            from repro.experiments.__main__ import main as program
        elif mode == "server":
            from repro.server.app import main as program
        else:
            raise SystemExit(f"unknown mode {mode!r}")
        return program(program_args)
    finally:
        recorder.write(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
