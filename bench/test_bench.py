"""Self-tests of the benchmark: seeded inputs repeat, and the checker catches bad output.

    python3 -m pytest -q bench
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rvar.cli  # noqa: E402

import run  # noqa: E402
import session  # noqa: E402
import workloads  # noqa: E402

N = 40


@pytest.mark.parametrize("workload", list(workloads.STREAMS))
def test_same_seed_same_inputs(workload):
    first = workloads.take(workload, 7, N)
    assert workloads.take(workload, 7, N) == first
    assert workloads.take(workload, 8, N) != first


def _cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert rvar.cli.main(argv) == 0
    return buf.getvalue().encode()


def _drop_line(out, i):
    lines = out.decode().splitlines(keepends=True)
    return "".join(lines[:i] + lines[i + 1:]).encode()


@pytest.fixture
def checker():
    return run.Checker(json.loads(run.GOLDEN.read_text()))


@pytest.mark.parametrize("workload", run.CLI_WORKLOADS)
def test_checker_flags_a_dropped_line(workload, checker):
    req = next(r for r in workloads.take(workload, 3, N)
               if workload == "closure-cli" or r["n"] <= 11)
    out = _cli_stdout(req["argv"])
    ok, records = checker.check(workload, req, 0, out)
    assert ok and records >= 1
    assert checker.check(workload, req, 0, _drop_line(out, 0)) == (False, 0)
    assert checker.check(workload, req, 2, out) == (False, 0)


def test_anchor_alone_catches_a_dropped_line(checker):
    """With no golden digest to lean on, A007323 still catches the loss."""
    req = next(r for r in workloads.tree_grid() if r["kind"] == "tree" and r["n"] == 9)
    out = _drop_line(_cli_stdout(req["argv"]), 3)
    checker.golden["semigroup-tree"][req["key"]] = run.anchors.digest(out)
    assert checker.check("semigroup-tree", req, 0, out) == (False, 0)


def test_checker_flags_a_dropped_session_line(checker):
    req = next(r for r in workloads.session_pool() if r["kind"] == "tree")
    _, answer = session.run_query(req, session.descriptor(req["spec"]), None)
    out = session.answer_bytes(session.answer_lines("tree", answer))
    assert checker.check("family-session", req, 0, out)[0]
    assert checker.check("family-session", req, 0, _drop_line(out, 2)) == (False, 0)


def test_traced_cli_sees_calls_through_every_binding(tmp_path):
    spans = tmp_path / "spans.tsv"
    cmd = [run.PY, str(run.BENCH / "traced_cli.py"), str(spans), "--",
           "tree", "--restricted", ":<1>", "--genus-bound", "3"]
    done = subprocess.run(cmd, env=run.ENV, capture_output=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout == _cli_stdout(cmd[4:])
    summary = json.loads((tmp_path / "spans.tsv.json").read_text())
    calls = {name: c for name, (c, _) in summary["functions"].items()}
    assert calls["cli.main"] == 1
    assert calls["engine._walk"] == 2  # build_tree and members_of walk separately
    assert "core.intersect" not in calls
    assert summary["walk_rows"] == 2 * (1 + 1 + 2 + 4)  # A007323 up to genus 3
    assert len(spans.read_text().splitlines()) == 1 + sum(calls.values())


def test_pace_scales_each_time_by_its_nearest_probes():
    ref = run.pace.REF_S
    # the host runs at half pace around the last two requests only
    times = [1.0, 1.0, 1.0, 1.0]
    paces = [ref, ref, ref, 2 * ref, 2 * ref]
    assert run.pace.scaled(times, paces) == pytest.approx([1.0, 1.0, 2 / 3, 0.5])
    assert run.pace.scaled([1.0], [None]) == [1.0]  # no probe: left as measured
    # one probe on either side, against another reference
    assert run.pace.scaled([1.0, 1.0], [2.0, 4.0, 4.0], ref=2.0, reach=1) == pytest.approx(
        [2 / 3, 0.5])


def test_pace_probe_runs_alone():
    done = subprocess.run(run.pace.COMMAND, capture_output=True, timeout=60)
    assert done.returncode == 0 and done.stdout == b""


def test_tail_percentile_is_fixed_but_keeps_ten_above():
    for n in (44, 66, 88, 110):  # two to five whole rounds of 22 requests
        i = run.tail_index("semigroup-tree", n)
        assert i == -(-75 * n // 100) - 1 and n - 1 - i >= run.TAIL_BEYOND
        assert i // (n // 22) == 16  # the same request size in every run
    assert run.tail_index("closure-cli", 50) == 50 - 1 - run.TAIL_BEYOND
    assert run.tail_index("closure-cli", 3) == 0
