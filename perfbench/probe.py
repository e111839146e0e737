"""Set-up probe: interpreter start, ``import gammoids.cli``, argument parsing
and loading the input file, with no command run.

    python3 perfbench/probe.py <gammoids CLI arguments>
"""

import sys

from gammoids import cli

args = cli.build_parser().parse_args(sys.argv[1:])
if getattr(args, "matroid", None):
    cli._load_matroid(args.matroid)
