"""Run one rvar CLI request under the tracer, in a fresh process.

    PYTHONPATH=src python bench/traced_cli.py SPANS -- genus-level --restricted ":<1>" --genus 12

The request's stdout and exit code are those of `python -m rvar.cli`.  At
exit the spans go to SPANS (tab-separated) and the per-function totals,
cache counts and walk rows to SPANS.json.
"""

import json
import sys

import rvar.cli

from tracer import Tracer


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    spans_path, rvar_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install(with_main=True)
    try:
        code = rvar.cli.main(rvar_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
        summary = {"functions": tracer.drain(), "caches": tracer.cache_counts(),
                   "walk_rows": tracer.walk_rows}
        with open(spans_path + ".json", "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
