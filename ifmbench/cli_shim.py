"""Traced entry point for the ``ifmsim`` CLI.

Usage: ``python cli_shim.py SPANS_OUT <ifmsim arguments...>``.  Installs the
span wrappers of ``tracing.py``, runs ``ifmsim.cli.main`` with the given
arguments and writes the spans to SPANS_OUT when the command ends, whatever
its exit code.
"""

from __future__ import annotations

import sys

import tracing


def main() -> None:
    spans_out = sys.argv[1]
    import ifmsim.cli

    recorder = tracing.Recorder()
    recorder.install()
    sys.argv = ["ifmsim", *sys.argv[2:]]
    try:
        ifmsim.cli.main()
    finally:
        recorder.write(spans_out)


if __name__ == "__main__":
    main()
