"""Traced server launcher: ``repro serve`` with the layer wrappers on.

``python -m perfbench.server TRACE_FILE ARGS...`` installs the
wrappers, runs ``repro.cli.main(["serve", *ARGS])`` until the service
is shut down, then writes its spans to ``TRACE_FILE``.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    from perfbench.layers import install_all
    from perfbench.spans import SpanRecorder

    recorder = SpanRecorder()
    install_all(recorder)
    import repro.cli

    code = repro.cli.main(["serve", *argv[1:]])
    recorder.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
