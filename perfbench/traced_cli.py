"""Run one ``multinets`` CLI command under the benchmark tracer.

Usage: python3 perfbench/traced_cli.py SPANS_FILE CLI_ARGS...

Behaves like ``python -m multinets.cli CLI_ARGS...`` and writes the spans of
the traced library functions to SPANS_FILE when the command ends.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    from multinets import cli  # imported first so its namespace is rebound too

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
