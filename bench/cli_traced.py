"""Run one symfield CLI command under the benchmark's tracer.

    python bench/cli_traced.py SUMMARY.json <symfield arguments...>

Writes the span summary (see spans.Tracer.summary) to SUMMARY.json and exits
with the command's exit code.  symfield must be importable (PYTHONPATH=src).
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import symfield.cli  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = symfield.cli.main(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad argument
        code = exc.code
    finally:
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
