"""Run one levypremium CLI operation with spans, and write them as JSONL.

    python perfbench/traced_op.py SPANS.jsonl -- fit --model nig --input x.csv

The root span ``cli.<command>`` covers the package import (span
``cli.import``) and ``levypremium.cli.main``; every other span sits below it,
so the self times of all spans add up to the root's duration.
"""

import importlib
import sys

import spans


def main() -> int:
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    tracer = spans.Tracer()
    try:
        with tracer.span(f"cli.{argv[0]}"):
            with tracer.span("cli.import"):
                cli = importlib.import_module("levypremium.cli")
            tracer.install()
            return cli.main(argv)
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
