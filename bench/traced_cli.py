"""Run one ``haltseries`` command in process, with the spans of ``tracing.py`` on.

Usage: python3 bench/traced_cli.py SUMMARY.json SPANS.bin -- <haltseries arguments>

It calls the program's own ``cli.main`` after ``tracing.instrument`` has
wrapped the public functions the command reaches. It prints exactly what
the command prints and exits with the command's exit code, so the
benchmark checks a traced run with the same oracle as an untraced one.
``cli.output_bytes`` counts the bytes the command printed.
"""

from __future__ import annotations

import contextlib
import io
import sys

from haltseries import cli
from tracing import Tracer, instrument


def main(argv: list[str]) -> int:
    summary_path, spans_path, separator, *args = argv
    if separator != "--" or not args:
        raise SystemExit("usage: traced_cli.py SUMMARY SPANS -- <haltseries arguments>")
    tracer = Tracer(True)
    instrument(tracer)
    out = io.StringIO()
    with tracer.operation(args[0]), contextlib.redirect_stdout(out):
        code = cli.main(args)
    text = out.getvalue()
    sys.stdout.write(text)
    tracer.count("cli.output_bytes", len(text.encode()))
    tracer.write(summary_path, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
