"""Run the sure-boundary CLI with spans recorded, for traced cli_cold runs.

Usage: PERFBENCH_SPANS=FILE python perfbench/tracecli.py <cli arguments>

Installs the tracer (which imports the package), runs ``cli.main`` on the
arguments and writes the spans to FILE.  Standard output is the CLI's own.
"""

import os
import sys

import tracer


def main() -> int:
    spans = tracer.Tracer()
    spans.install()
    from sure_boundary import cli

    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    spans.dump(os.environ["PERFBENCH_SPANS"])
    return code


if __name__ == "__main__":
    sys.exit(main())
