"""Traced in-process run of the gammoids CLI.

    python3 perfbench/traced.py SPANS.json STDOUT.txt <gammoids CLI arguments>

Installs the spans of `spans.py`, calls ``gammoids.cli.main`` with the CLI
arguments, writes the CLI's stdout to STDOUT.txt and the aggregated spans to
SPANS.json, and exits with the CLI's exit code.
"""

import json
import sys
from contextlib import redirect_stdout

from gammoids import cli
from spans import Tracer, installed


def main(argv: list[str]) -> int:
    spans_path, stdout_path, *cli_argv = argv
    tracer = Tracer()
    with open(stdout_path, "w", encoding="utf-8") as out, installed(tracer), redirect_stdout(out):
        tracer.enter("cli", "main")
        try:
            code = cli.main(cli_argv)
        finally:
            tracer.exit()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
