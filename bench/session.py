"""The family-session workload: one long library session in one process.

Runs the seeded query stream of `workloads.family_session` through rvar's
public names, in whole rounds until the time is up, so lru caches can hit
across queries.
Only the library call is timed; serializing and hashing the answer happen
outside the timed region, and so does the pace probe (pace.py) that an
untraced session times before each query and after the last.  Each query
writes one JSON line to --out; the full answer text goes with the first
occurrence of its key only.

    PYTHONPATH=src python bench/session.py --seed 1 --seconds 10 --out s.jsonl
"""

import argparse
import contextlib
import json
import time

import rvar
from rvar import NumSG, format_semigroup, parse_semigroup

import anchors
import pace
import workloads
from tracer import Tracer

BOUND = workloads.SESSION_GENUS_BOUND


def descriptor(spec):
    sg = rvar.from_generators
    if spec[0] == "interval":
        return rvar.Interval(sg(spec[1]), sg(spec[2]))
    return rvar.Generated(tuple(sg(g) for g in spec[1]), sg(spec[2]))


def _systext(b):
    return ",".join(map(str, sorted(b)))


def _tree_text(root):
    lines = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append("%d\t%s\t%s\t%d" % (depth, format_semigroup(node.sg),
                                          _systext(node.min_system), node.restricted_frob))
        stack.extend((c, depth + 1) for c in reversed(node.children))
    return lines


def query_arg(req):
    """The semigroup argument of a view or restrict query, parsed before timing."""
    text = req.get("top") or req.get("by")
    return parse_semigroup(text) if text else None


def run_query(req, desc, arg):
    """Run one query; returns (seconds, answer).

    Calls go through the `rvar` package attributes, so a tracer that
    rebinds them sees every call.
    """
    kind = req["kind"]
    t0 = time.perf_counter()
    if kind == "tree":
        answer = rvar.build_tree(desc, BOUND)
    elif kind == "view":
        answer = rvar.build_tree(rvar.descendants(desc, arg), BOUND)
    elif kind == "restrict":
        answer = rvar.restrict_variety(desc, arg, BOUND)
    else:
        mem, _ = rvar.members_of(desc, BOUND)
        answer = [(s, rvar.member(desc, s), rvar.minimal_rsystem(desc, s)) for s in mem]
    return time.perf_counter() - t0, answer


def answer_lines(kind, answer):
    """The answer as text lines; one line per record."""
    if kind in ("tree", "view"):
        return _tree_text(answer)
    if kind == "restrict":
        return [format_semigroup(s) for s in sorted(answer, key=NumSG.sort_key)]
    return ["%s\t%d\t%s" % (format_semigroup(s), ok, _systext(b)) for s, ok, b in answer]


def answer_bytes(lines):
    return ("\n".join(lines) + "\n").encode()


def answer_row(req, desc, untraced):
    """Run one query; its time, record count, digest and text as a JSON-ready row."""
    try:
        with untraced():
            arg = query_arg(req)
        dt, answer = run_query(req, desc, arg)
    except Exception as e:  # a failed query is counted, not fatal
        return {"key": req["key"], "error": repr(e)}
    with untraced():
        lines = answer_lines(req["kind"], answer)
    data = answer_bytes(lines)
    return {"key": req["key"], "seconds": dt, "records": len(lines),
            "digest": anchors.digest(data), "text": data.decode()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where the trace writes the last query's spans")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    descs = {name: descriptor(spec) for name, spec in workloads.families()}
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def untraced():
        return tracer.paused() if tracer else contextlib.nullcontext()

    by_kind = {}  # query kind -> {"requests": n, "functions": {name: [calls, self ns]}}

    def collect(kind):
        entry = by_kind.setdefault(kind, {"requests": 0, "functions": {}})
        entry["requests"] += 1
        for name, (calls, ns) in tracer.drain().items():
            acc = entry["functions"].setdefault(name, [0, 0])
            acc[0] += calls
            acc[1] += ns

    sent = set()
    last = None
    deadline = time.perf_counter() + args.seconds
    with open(args.out, "w") as out:
        for group in workloads.family_session(args.seed):
            if time.perf_counter() >= deadline:
                break
            for req in group:
                if tracer and last:
                    collect(last)  # the previous query's spans; the last ones are dumped
                last = req["kind"]
                beat = None if tracer else pace.in_process_probe()
                row = answer_row(req, descs[req["family"]], untraced)
                if beat:
                    row["pace"] = beat
                if req["key"] in sent:
                    row.pop("text", None)
                elif "text" in row:
                    sent.add(req["key"])
                out.write(json.dumps(row) + "\n")
        if not tracer:
            out.write(json.dumps({"pace": pace.in_process_probe()}) + "\n")  # after the last query
        if tracer and last:
            if args.spans:
                tracer.dump(args.spans)
            collect(last)
            out.write(json.dumps({"trace": {"kinds": by_kind,
                                            "caches": tracer.cache_counts(),
                                            "walk_rows": tracer.walk_rows}}) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
