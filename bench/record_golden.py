"""Record the stdout digest of every request the workloads can draw.

Run at a commit whose outputs are trusted; the benchmark then requires every
answer to match byte for byte:

    PYTHONPATH=src python3 bench/record_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import rvar.cli

import anchors
import session
import workloads


def cli_digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = rvar.cli.main(argv)
    if code != 0:
        raise SystemExit("rvar %s exited with %d" % (" ".join(argv), code))
    return anchors.digest(buf.getvalue().encode())


def session_digest(req):
    desc = session.descriptor(req["spec"])
    _, answer = session.run_query(req, desc, session.query_arg(req))
    return anchors.digest(session.answer_bytes(session.answer_lines(req["kind"], answer)))


def main():
    golden = {
        "semigroup-tree": {r["key"]: cli_digest(r["argv"]) for r in workloads.tree_grid()},
        "closure-cli": {},
        "family-session": {r["key"]: session_digest(r) for r in workloads.session_pool()},
    }
    for group in workloads.closure_pool():
        for req in workloads.closure_group(*group):
            if req["key"] not in golden["closure-cli"]:
                golden["closure-cli"][req["key"]] = cli_digest(req["argv"])
    path = Path(__file__).resolve().parent / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("%s: %s" % (path.name, {k: len(v) for k, v in golden.items()}), file=sys.stderr)


if __name__ == "__main__":
    main()
