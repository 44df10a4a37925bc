"""Run one `qrecur` CLI call with the tracer's wrappers installed.

Usage: python3 benchmarks/cli_shim.py SPANS.json <qrecur arguments...>

Spans go to SPANS.json for the parent benchmark process to adopt; the
exit code and stdout are the CLI's own.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import qrecur.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        with tracer.span("cli.main", subcommand=argv[0]):
            code = qrecur.cli.main(argv)
    finally:
        tracer.restore()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
