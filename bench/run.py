"""Benchmark of rvar: end-to-end metrics per workload, or a traced per-layer run.

    python3 bench/run.py --workload semigroup-tree --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seconds 10          # every workload, as a table

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
Timings are scaled to a reference pace of the host (see pace.py).
Details (request count, which percentile the tail is, raw timings) go to stderr.
See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import anchors
import pace
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PY = sys.executable
GOLDEN = BENCH / "golden.json"
SETUP_PROBES = 11
TAIL_BEYOND = 10  # the tail keeps at least this many requests above it
# The tail's percentile, per workload: as high as a run in a slow spell of the
# host allows with TAIL_BEYOND requests above it (two rounds, 44 requests, on
# semigroup-tree).  It is fixed because runs measure whole rounds of requests,
# so a fixed percentile lands on the same request size in every run, while the
# highest percentile with TAIL_BEYOND requests above it would move with the
# number of rounds, and so with the host's speed.
TAIL_PERCENTILE = {"semigroup-tree": 75, "family-session": 90, "closure-cli": 90}
CLI_WORKLOADS = ("semigroup-tree", "closure-cli")
SETUP_PROBE = [PY, "-c", "import rvar.cli"]
# every child imports rvar from the checkout's src
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


class Launcher:
    """The small helper process that starts every request (see launch.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([PY, "-S", str(BENCH / "launch.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=ENV, cwd=ROOT, text=True)
        self.out, self.err = OUT / "request.stdout", OUT / "request.stderr"

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=180)

    def run(self, cmd):
        """Run cmd to completion: (wall seconds, peak RSS in MB, exit code, stdout).

        The RSS is the child's own os.wait4 rusage; RUSAGE_CHILDREN would give
        the maximum over every child of the benchmark, across workloads.
        """
        self.proc.stdin.write(json.dumps([cmd, str(self.out), str(self.err)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("bench: the request launcher died")
        dt, kb, code = json.loads(reply)
        if code != 0:
            sys.stderr.write("request %s failed with %d: %s\n"
                             % (cmd[1:], code, self.err.read_text(errors="replace")))
        return dt, kb / 1024, code, self.out.read_bytes()

    def probe(self):
        """Wall seconds of one pace probe (see pace.py)."""
        dt, _, code, _ = self.run(pace.COMMAND)
        if code != 0:
            raise SystemExit("bench: the pace probe failed")
        return dt


def setup_seconds(launch):
    """Median wall time of a fresh interpreter that imports rvar.cli and exits.

    Returns (raw seconds, seconds at the reference pace); pace probes come
    before, between and after the set-up probes.
    """
    times, paces = [], []
    for _ in range(SETUP_PROBES):
        paces.append(launch.probe())
        dt, _, code, _ = launch.run(SETUP_PROBE)
        if code != 0:
            raise SystemExit("bench: importing rvar.cli failed")
        times.append(dt)
    paces.append(launch.probe())
    return statistics.median(times), statistics.median(pace.scaled(times, paces))


# ----------------------------------------------------------------- checking

class Checker:
    """Golden digests plus independent anchors; each verdict is cached per answer."""

    def __init__(self, golden):
        self.golden = golden
        self.verdicts = {}
        self.members = {}

    def check(self, workload, req, code, out):
        """(ok, records) for one request's exit code and stdout bytes."""
        if code != 0:
            return False, 0
        dig = anchors.digest(out)
        memo = (req["key"], dig)
        if memo not in self.verdicts:
            ok = self.golden[workload].get(req["key"]) == dig
            if not ok:
                sys.stderr.write("digest mismatch: %s\n" % req["key"])
            try:
                records = self._anchor(workload, req, out.decode())
            except (anchors.CheckFailed, ValueError, KeyError, IndexError) as e:
                sys.stderr.write("check failed: %s: %s\n" % (req["key"], e))
                ok, records = False, 0
            self.verdicts[memo] = (ok, records if ok else 0)
        return self.verdicts[memo]

    def _anchor(self, workload, req, text):
        """Verify against the independent anchor; returns the record count."""
        kind = req["kind"]
        if workload == "semigroup-tree":
            if kind == "tree":
                anchors.check_tree(text, req["n"])
                return len(text.splitlines()) - 1
            anchors.check_genus_level(text, req["n"], req["structured"])
            return len(text.splitlines())
        if workload == "closure-cli":
            if kind == "vsystem":
                anchors.check_vsystem(text, req["closure"], req["sg"])
            else:
                anchors.check_closure(text, req["closure"], req["gens"], req.get("inside"))
            return 1
        return self._anchor_session(req, text.splitlines())

    def _family(self, req):
        name, spec = req["family"], req["spec"]
        if name not in self.members:
            if spec[0] == "interval":
                # imported here: main() puts src on the path once it knows src exists
                from rvar import Interval, format_semigroup, from_generators
                from rvar.oracle import oracle_members
                desc = Interval(from_generators(spec[1]), from_generators(spec[2]))
                found = oracle_members(desc, workloads.SESSION_GENUS_BOUND)
                self.members[name] = {anchors.parse(format_semigroup(s)) for s in found}
            else:
                self.members[name] = anchors.generated_members(spec[1], spec[2])
        return self.members[name]

    def _anchor_session(self, req, lines):
        fam = self._family(req)
        kind = req["kind"]
        cols = [line.split("\t") for line in lines]
        if kind in ("tree", "view"):
            want = fam
            if kind == "view":
                want = anchors.view_members(fam, anchors.parse(req["top"]),
                                            anchors.sieve(req["spec"][2]))
            anchors.check_member_set([c[1] for c in cols], want, req["key"])
        elif kind == "restrict":
            u = anchors.parse(req["by"])
            anchors.check_member_set(lines, {m & u for m in fam}, req["key"])
        else:
            anchors.check_member_set([c[0] for c in cols], fam, req["key"])
            if any(c[1] != "1" for c in cols):
                raise anchors.CheckFailed("%s: a member is reported as a non-member"
                                          % req["key"])
        return len(lines)


# ------------------------------------------------------------------ running

class Run:
    """What one run measured."""

    def __init__(self):
        self.times = []
        self.paces = []  # the pace probe before each untraced request, and one after the last
        self.ref = pace.REF_S  # the probes' reference time (see pace.py)
        self.reach = 2
        self.records = 0
        self.failed = 0
        self.rss_mb = 0.0
        self.layers = {}  # traced function -> [calls, self ns]
        self.caches = {}  # cached function -> [hits, misses]
        self.walk_rows = 0
        self.traced = 0
        self.overhead = []
        self.per_kind = {}  # request kind -> [requests, {function: calls}]

    def count(self, dt, ok, records, beat=None):
        self.times.append(dt)
        self.paces.append(beat)
        self.records += records
        self.failed += not ok

    def add_trace(self, kind, requests, functions):
        """Add the traced calls and self time of `requests` requests of one kind."""
        self.traced += requests
        entry = self.per_kind.setdefault(kind, [0, {}])
        entry[0] += requests
        for name, (calls, ns) in functions.items():
            acc = self.layers.setdefault(name, [0, 0])
            acc[0] += calls
            acc[1] += ns
            entry[1][name] = entry[1].get(name, 0) + calls

    def add_counts(self, summary):
        for name, (hits, misses) in summary["caches"].items():
            acc = self.caches.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
        self.walk_rows += summary["walk_rows"]


def run_cli(launch, workload, seed, seconds, trace, checker):
    run = Run()
    spans = OUT / ("%s.spans.tsv" % workload)
    deadline = time.perf_counter() + seconds
    for group in workloads.STREAMS[workload](seed):
        if time.perf_counter() >= deadline:
            break
        for req in group:
            beat = None if trace else launch.probe()
            dt, mb, code, out = launch.run([PY, "-m", "rvar.cli"] + req["argv"])
            ok, records = checker.check(workload, req, code, out)
            run.rss_mb = max(run.rss_mb, mb)
            if trace:
                tdt, _, tcode, tout = launch.run([PY, str(BENCH / "traced_cli.py"), str(spans),
                                                  "--"] + req["argv"])
                ok = ok and checker.check(workload, req, tcode, tout)[0]
                run.overhead.append(tdt - dt)
                summary = json.loads(Path(str(spans) + ".json").read_text())
                run.add_trace(req["kind"], 1, summary["functions"])
                run.add_counts(summary)
            run.count(dt, ok, records, beat)
    if not trace:
        run.paces.append(launch.probe())
    return run


def _session(launch, seed, seconds, trace, out_path):
    cmd = [PY, str(BENCH / "session.py"), "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out_path)]
    if trace:
        cmd += ["--spans", str(OUT / "family-session.spans.tsv")]
    _, mb, code, _ = launch.run(cmd)
    rows = [json.loads(line) for line in out_path.read_text().splitlines()] if code == 0 else []
    return mb, code, rows


def run_session(launch, seed, seconds, trace, checker):
    """One library session per run; with trace, an untraced and a traced half."""
    run = Run()
    run.ref, run.reach = pace.QUERY_REF_S, pace.QUERY_REACH
    halves = [0, 1] if trace else [0]
    results = []
    for t in halves:
        mb, code, rows = _session(launch, seed, seconds / len(halves), t, OUT / "session.jsonl")
        if code != 0:
            run.count(0.0, False, 0)
        run.rss_mb = max(run.rss_mb, mb)
        results.append(rows)
    texts = {}
    for rows in results:
        # session.py writes one row per query, in the order of the seeded stream
        answered = [r for r in rows if "key" in r]
        for row, req in zip(answered, workloads.requests("family-session", seed)):
            if row["key"] != req["key"]:
                raise SystemExit("bench: session stream out of step at %s" % row["key"])
            if "error" in row:
                sys.stderr.write("query %s raised %s\n" % (row["key"], row["error"]))
                run.count(0.0, False, 0, row.get("pace"))
                continue
            # the answer text comes once per key; later answers are judged by digest
            text = texts.setdefault(row["key"], row.get("text"))
            ok, records = checker.check("family-session", req, 0, text.encode())
            ok = ok and row["digest"] == anchors.digest(text.encode())
            run.count(row["seconds"], ok, records if ok else 0, row.get("pace"))
        run.paces += [r["pace"] for r in rows if "pace" in r and "key" not in r]
    if trace:
        plain, traced = ([r for r in rows if "seconds" in r] for rows in results)
        run.overhead = [b["seconds"] - a["seconds"] for a, b in zip(plain, traced)]
        summary = next((r["trace"] for r in results[1] if "trace" in r), None)
        if summary:
            for kind, entry in summary["kinds"].items():
                run.add_trace(kind, entry["requests"], entry["functions"])
            run.add_counts(summary)
    return run


def tail_index(workload, n):
    """Index of req_tail_s in n sorted times: the workload's percentile, nearest rank,
    lowered if fewer than TAIL_BEYOND times would lie above it."""
    rank = -(-TAIL_PERCENTILE[workload] * n // 100)
    return max(min(rank - 1, n - 1 - TAIL_BEYOND), 0)


def end_to_end(workload, run, setup):
    """The end-to-end metrics; every timing is scaled to the reference pace."""
    raw_setup, setup = setup
    n = len(run.times)
    order = sorted(pace.scaled(run.times, run.paces, run.ref, run.reach))
    i = tail_index(workload, n)
    busy = sum(order)
    metrics = {
        "setup_s": (setup, "s"),
        "req_p50_s": (statistics.median(order), "s"),
        "req_tail_s": (order[i], "s"),
        "results_per_s": (run.records / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
        "ok_ratio": ((n - run.failed) / n, "ratio"),
    }
    notes = {"requests": n, "tail_percentile": round(100.0 * (i + 1) / n, 2),
             "fail_ratio": run.failed / n,
             "pace_s": statistics.median([p for p in run.paces if p] or [0.0]),
             "raw_setup_s": raw_setup, "raw_req_p50_s": statistics.median(run.times),
             "raw_req_tail_s": sorted(run.times)[i]}
    return metrics, notes


def per_layer(run):
    n = max(run.traced, 1)
    metrics = {}
    for name in tracer.TRACED:
        calls, ns = run.layers.get(name, (0, 0))
        metrics[name + ".calls"] = (calls / n, "count")
        metrics[name + ".self_s"] = (ns / 1e9 / n, "s")
    for name in tracer.CACHED:
        hits, misses = run.caches.get(name, (0, 0))
        metrics[name + ".hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                        "ratio")
    metrics["engine._walk.rows"] = (run.walk_rows / n, "count")
    metrics["cli.main.self_s"] = (run.layers.get(tracer.MAIN, (0, 0))[1] / 1e9 / n, "s")
    overhead = statistics.mean(run.overhead) if run.overhead else 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = {"traced_requests": run.traced,
             "calls_per_request_by_kind": {
                 kind: {"requests": k, **{f: round(c / k, 2) for f, c in sorted(calls.items())}}
                 for kind, (k, calls) in sorted(run.per_kind.items())}}
    return metrics, notes


def run_workload(workload, seed, seconds, trace, checker):
    with Launcher() as launch:
        launch.run(SETUP_PROBE)  # writes the bytecode cache, as any first use would
        setup = None if trace else setup_seconds(launch)
        if workload in CLI_WORKLOADS:
            run = run_cli(launch, workload, seed, seconds, trace, checker)
        else:
            run = run_session(launch, seed, seconds, trace, checker)
    if not run.times:
        raise SystemExit("bench: no request completed in %s s" % seconds)
    return (run, *(per_layer(run) if trace else end_to_end(workload, run, setup)))


def result_json(run, metrics):
    return {"correct": run.failed == 0, "attempted": len(run.times), "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all"] + list(workloads.STREAMS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rvar" / "cli.py").is_file():
        print("bench: no rvar sources at %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    checker = Checker(json.loads(GOLDEN.read_text()))
    names = list(workloads.STREAMS) if args.workload == "all" else [args.workload]
    for name in names:
        run, metrics, notes = run_workload(name, args.seed, args.seconds, args.trace, checker)
        print("%s seed=%d: %s" % (name, args.seed, json.dumps(notes)), file=sys.stderr)
        if args.workload != "all":
            print(json.dumps(result_json(run, metrics)))
            continue
        print("%s  (%d requests, %d failed, tail = p%s)"
              % (name, len(run.times), run.failed, notes.get("tail_percentile", "-")))
        for key, (value, unit) in metrics.items():
            print("  %-40s %14.6g %s" % (key, value, unit))
        if not args.trace:
            print("  %-40s %14.6g %s" % ("fail_ratio", notes["fail_ratio"], "ratio"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
