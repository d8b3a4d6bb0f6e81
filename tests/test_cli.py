"""Command-line surface: frozen output, exit codes, structured forms."""

import argparse
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from rvar import (
    NATURALS, Interval, InvariantError, cli, descendants, format_semigroup,
    from_generators, genus, msg, tree_of,
)
from support import count_systems

INTERVAL = "<5,6>:<5,6,7>"
GENERATED = "<5,7,9,11,13>;<4,10,11,13>:<4,5,7>"
RESTRICTED = "4,6:<4,6,7>"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestScalarCommands:
    def test_info(self, capsys):
        rc, out, _ = run(capsys, "info", "<5,6,7>")
        assert rc == 0
        assert out == ("sg: <5,6,7>\n"
                       "multiplicity: 5\n"
                       "frobenius: 9\n"
                       "genus: 6\n"
                       "small: 0,5,6,7,10\n")

    def test_info_structured(self, capsys):
        rc, out, _ = run(capsys, "info", "<5,6,7>", "--format", "structured")
        assert rc == 0
        assert json.loads(out) == {
            "sg": "<5,6,7>", "msg": [5, 6, 7], "multiplicity": 5,
            "frobenius": 9, "genus": 6, "small": [0, 5, 6, 7, 10],
        }

    def test_msg_normalizes(self, capsys):
        rc, out, _ = run(capsys, "msg", "4,6,11,5")
        assert rc == 0
        assert out == "4,5,6\n"

    def test_frobenius(self, capsys):
        rc, out, _ = run(capsys, "frobenius", "<5,6,13,14>")
        assert (rc, out) == (0, "9\n")

    def test_frobenius_inside(self, capsys):
        rc, out, _ = run(capsys, "frobenius", "<5,6,13,14>",
                         "--inside", "<5,6,7>")
        assert (rc, out) == (0, "7\n")

    def test_genus(self, capsys):
        rc, out, _ = run(capsys, "genus", "<4,10,11,13>")
        assert (rc, out) == (0, "7\n")

    def test_intersect(self, capsys):
        rc, out, _ = run(capsys, "intersect", "<5,7,9>", "<5,9,13,17,21>")
        assert (rc, out) == (0, "<5,9,17,21>\n")

    def test_msg_structured(self, capsys):
        rc, out, _ = run(capsys, "msg", "4,6,11,5", "--format", "structured")
        assert (rc, out) == (0, '{"msg": [4, 5, 6], "sg": "<4,5,6>"}\n')

    def test_frobenius_structured(self, capsys):
        rc, out, _ = run(capsys, "frobenius", "<5,6,13,14>",
                         "--format", "structured")
        assert (rc, out) == (0, '{"frobenius": 9, "sg": "<5,6,13,14>"}\n')

    def test_frobenius_inside_structured(self, capsys):
        rc, out, _ = run(capsys, "frobenius", "<5,6,13,14>",
                         "--inside", "<5,6,7>", "--format", "structured")
        assert (rc, out) == (
            0, '{"fdelta": 7, "inside": "<5,6,7>", "sg": "<5,6,13,14>"}\n')

    def test_genus_structured(self, capsys):
        rc, out, _ = run(capsys, "genus", "<4,10,11,13>",
                         "--format", "structured")
        assert (rc, out) == (0, '{"genus": 7, "sg": "<4,10,11,13>"}\n')

    def test_intersect_structured(self, capsys):
        rc, out, _ = run(capsys, "intersect", "<5,7,9>", "<5,9,13,17,21>",
                         "--format", "structured")
        assert (rc, out) == (0, '{"frobenius": 16, "genus": 11, '
                                '"msg": [5, 9, 17, 21], "sg": "<5,9,17,21>"}\n')


class TestChain:
    def test_text(self, capsys):
        rc, out, _ = run(capsys, "chain", "<5,6>", "--inside", "<5,6,7>")
        assert rc == 0
        assert out == ("<5,6>\n"
                       "<5,6,19>  adjoin=19\n"
                       "<5,6,14>  adjoin=14\n"
                       "<5,6,13,14>  adjoin=13\n"
                       "<5,6,7>  adjoin=7\n")

    def test_structured(self, capsys):
        rc, out, _ = run(capsys, "chain", "<5,6>", "--inside", "<5,6,7>",
                         "--format", "structured")
        assert rc == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {"sg": "<5,6>", "msg": [5, 6], "genus": 10,
                           "fdelta": None}
        assert rows[-1] == {"sg": "<5,6,7>", "msg": [5, 6, 7], "genus": 6,
                            "fdelta": 7}
        assert [r["fdelta"] for r in rows] == [None, 19, 14, 13, 7]

    def test_a_chain_past_the_bound_is_refused_before_any_output(self, capsys):
        # 499,501 links, each up to the conductor 999,000 of <1000,1001> wide
        rc, out, err = run(capsys, "chain", "<1000,1001>", "--inside", "<1>")
        assert (rc, out) == (2, "")
        assert err == ("rvar: error: chain of 499501 links up to 999000 bits wide "
                       "exceeds 1073741824 bits\n")


class TestTree:
    def test_interval_text(self, capsys):
        rc, out, _ = run(capsys, "tree", "--interval", INTERVAL)
        assert rc == 0
        assert out == ("<5,6,7>  [7]  fdelta=-1\n"
                       "  <5,6,13,14>  [13,14]  fdelta=7\n"
                       "    <5,6,14>  [14]  fdelta=13\n"
                       "      <5,6,19>  [19]  fdelta=14\n"
                       "        <5,6>  []  fdelta=19\n"
                       "    <5,6,13>  [13]  fdelta=14\n")

    def test_generated_text(self, capsys):
        rc, out, _ = run(capsys, "tree", "--generated", GENERATED)
        assert rc == 0
        assert out == (
            "<4,5,7>  [4,5]  fdelta=-1\n"
            "  <5,7,8,9,11>  [5,8]  fdelta=4\n"
            "    <7,8,9,10,11,12,13>  [7,8]  fdelta=5\n"
            "      <8,9,10,11,12,13,14,15>  [8,9]  fdelta=7\n"
            "        <9,10,11,12,13,14,15,16,17>  [9]  fdelta=8\n"
            "          <10,11,12,13,14,15,16,17,18,19>  []  fdelta=9\n"
            "        <8,10,11,12,13,14,15,17>  [8]  fdelta=9\n"
            "      <7,9,10,11,12,13,15>  [7]  fdelta=8\n"
            "    <5,7,9,11,13>  [5]  fdelta=8\n"
            "  <4,7,9,10>  [4,7]  fdelta=5\n"
            "    <4,9,10,11>  [4,9]  fdelta=7\n"
            "      <4,10,11,13>  [4]  fdelta=9\n")

    def test_dot(self, capsys):
        rc, out, _ = run(capsys, "tree", "--interval", "<5,6,14>:<5,6,7>",
                         "--format", "dot")
        assert rc == 0
        assert out == ("digraph rvariety {\n"
                       "  rankdir=BT;\n"
                       "  n0 [label=\"<5,6,7>\"];\n"
                       "  n1 [label=\"<5,6,13,14>\"];\n"
                       "  n2 [label=\"<5,6,14>\"];\n"
                       "  n1 -> n0;\n"
                       "  n2 -> n1;\n"
                       "}\n")

    def test_a_large_forced_element_is_cheap(self, capsys):
        # every semigroup holds 10**12, so the tree is that of N
        rc, out, _ = run(capsys, "tree", "--restricted", ":<1>",
                         "--genus-bound", "4")
        assert rc == 0
        assert run(capsys, "tree", "--restricted", "1000000000000:<1>",
                   "--genus-bound", "4") == (0, out, "")

    def test_dot_truncated(self, capsys):
        rc, out, _ = run(capsys, "tree", "--restricted", RESTRICTED,
                         "--genus-bound", "8", "--format", "dot")
        assert rc == 0
        assert out == ("digraph rvariety {\n"
                       "  rankdir=BT;\n"
                       "  n0 [label=\"<4,6,7>\"];\n"
                       "  n1 [label=\"<4,6,11,13>\"];\n"
                       "  n2 [label=\"<4,6,13,15>\"];\n"
                       "  n3 [label=\"<4,6,15,17>\"];\n"
                       "  n4 [label=\"<4,6,13>\"];\n"
                       "  n5 [label=\"<4,6,11>\"];\n"
                       "  n1 -> n0;\n"
                       "  n2 -> n1;\n"
                       "  n5 -> n1;\n"
                       "  n3 -> n2;\n"
                       "  n4 -> n2;\n"
                       "  // truncated at genus 8\n"
                       "}\n")

    def test_structured_round_trip(self, capsys):
        rc, out, _ = run(capsys, "tree", "--interval", INTERVAL,
                         "--format", "structured")
        assert rc == 0
        doc = json.loads(out)
        assert doc["complete"] is True
        assert doc["genus_bound"] == 40

        def collect(node):
            yield node["sg"], node["fdelta"]
            for c in node["children"]:
                yield from collect(c)

        got = set(collect(doc["tree"]))
        assert got == {("<5,6,7>", -1), ("<5,6,13,14>", 7), ("<5,6,14>", 13),
                       ("<5,6,19>", 14), ("<5,6>", 19), ("<5,6,13>", 14)}

    @pytest.mark.parametrize("k, view", [(1201, False), (3001, True)])
    def test_a_deep_tree_has_a_structured_form(self, capsys, k, view):
        # the family from <2,k> up to N, k odd, is one path, a level per
        # member: 600 and 1,500 levels deep at these bounds
        bound = k // 2
        argv = ["--interval", "<2,%d>:<1>" % k, "--genus-bound", str(bound),
                "--format", "structured"]
        desc = Interval(from_generators([2, k]), NATURALS)
        if view:
            argv = ["descendants", "<2,5>", *argv]
            desc = descendants(desc, from_generators([2, 5]))
        else:
            argv = ["tree", *argv]
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        root, complete = tree_of(desc, bound)

        def record(n):
            return {"sg": format_semigroup(n.sg), "msg": list(msg(n.sg)),
                    "genus": genus(n.sg), "fdelta": n.restricted_frob,
                    "minsys": n.min_system,
                    "children": [record(c) for c in n.children]}
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            want = json.dumps({"complete": complete, "genus_bound": bound,
                               "tree": record(root)}, sort_keys=True)
        finally:
            sys.setrecursionlimit(limit)
        assert out == want + "\n"
        assert out.count('"children"') == bound - genus(root.sg) + 1 >= 600

    def test_output_is_deterministic(self, capsys):
        first = run(capsys, "tree", "--generated", GENERATED)
        second = run(capsys, "tree", "--generated", GENERATED)
        assert first == second


class TestGenusLevel:
    def test_text(self, capsys):
        rc, out, _ = run(capsys, "genus-level", "--restricted", RESTRICTED,
                         "--genus", "8")
        assert (rc, out) == (0, "<4,6,13>\n<4,6,15,17>\n")

    def test_structured(self, capsys):
        rc, out, _ = run(capsys, "genus-level", "--restricted", RESTRICTED,
                         "--genus", "8", "--format", "structured")
        assert rc == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == [
            {"sg": "<4,6,13>", "msg": [4, 6, 13], "genus": 8,
             "minsys": [13], "fdelta": 15},
            {"sg": "<4,6,15,17>", "msg": [4, 6, 15, 17], "genus": 8,
             "minsys": [15, 17], "fdelta": 13},
        ]

    def test_structured_systems_come_from_one_kernel(self, capsys, monkeypatch):
        # the level walk takes the family's system once, not per member,
        # and the records read the systems that the walk carries
        calls = []
        count_systems(monkeypatch, calls)
        rc, out, _ = run(capsys, "genus-level", "--restricted", ":<1>",
                         "--genus", "6", "--format", "structured")
        assert rc == 0
        assert len(out.splitlines()) == 23  # A007323
        assert len(calls) == 1

    def test_below_the_maximum_is_empty(self, capsys):
        rc, out, _ = run(capsys, "genus-level", "--restricted", RESTRICTED,
                         "--genus", "3")
        assert (rc, out) == (0, "")


class TestMinsys:
    def test_interval(self, capsys):
        rc, out, _ = run(capsys, "minsys", "<5,6,13,14>",
                         "--interval", INTERVAL)
        assert (rc, out) == (0, "13,14\n")

    def test_non_member_is_a_domain_error(self, capsys):
        rc, _, err = run(capsys, "minsys", "<5,6,8>", "--interval", INTERVAL)
        assert rc == 2
        assert "error" in err

    def test_non_member_message_is_the_same_in_both_formats(self, capsys):
        for fmt in ("text", "structured"):
            rc, out, err = run(capsys, "minsys", "<5,6,8>", "--interval",
                               INTERVAL, "--format", fmt)
            assert (rc, out) == (2, "")
            assert err == "rvar: error: <5,6,8> is not a member\n"

    def test_structured(self, capsys):
        rc, out, _ = run(capsys, "minsys", "<5,6,13,14>", "--interval",
                         INTERVAL, "--format", "structured")
        assert (rc, out) == (0, '{"fdelta": 7, "genus": 7, "minsys": [13, 14], '
                                '"msg": [5, 6, 13, 14], "sg": "<5,6,13,14>"}\n')


class TestDescendants:
    def test_view_text(self, capsys):
        rc, out, _ = run(capsys, "descendants", "<5,6,13,14>",
                         "--interval", INTERVAL)
        assert rc == 0
        assert out == ("<5,6,13,14>  [13,14]  fdelta=-1\n"
                       "  <5,6,14>  [14]  fdelta=13\n"
                       "    <5,6,19>  [19]  fdelta=14\n"
                       "      <5,6>  []  fdelta=19\n"
                       "  <5,6,13>  [13]  fdelta=14\n")

    def test_view_dot(self, capsys):
        rc, out, _ = run(capsys, "descendants", "<5,6,13,14>",
                         "--interval", INTERVAL, "--format", "dot")
        assert rc == 0
        assert out == ("digraph rvariety {\n"
                       "  rankdir=BT;\n"
                       "  n0 [label=\"<5,6,13,14>\"];\n"
                       "  n1 [label=\"<5,6,14>\"];\n"
                       "  n2 [label=\"<5,6,19>\"];\n"
                       "  n3 [label=\"<5,6>\"];\n"
                       "  n4 [label=\"<5,6,13>\"];\n"
                       "  n1 -> n0;\n"
                       "  n4 -> n0;\n"
                       "  n2 -> n1;\n"
                       "  n3 -> n2;\n"
                       "}\n")

    def test_truncated_view_shows_exact_systems(self, capsys):
        rc, out, _ = run(capsys, "descendants", "<4,6,11,13>",
                         "--restricted", RESTRICTED, "--genus-bound", "8")
        assert rc == 0
        assert out == ("<4,6,11,13>  [11,13]  fdelta=-1\n"
                       "  <4,6,13,15>  [13,15]  fdelta=11\n"
                       "    <4,6,15,17>  [15,17]  fdelta=13\n"
                       "    <4,6,13>  [13]  fdelta=15\n"
                       "  <4,6,11>  [11]  fdelta=13\n"
                       "# truncated at genus 8\n")

    def test_leaf_view_structured(self, capsys):
        rc, out, _ = run(capsys, "descendants", "<4,6,11>",
                         "--restricted", RESTRICTED, "--genus-bound", "8",
                         "--format", "structured")
        assert rc == 0
        doc = json.loads(out)
        assert doc["complete"] is True
        assert doc["tree"]["sg"] == "<4,6,11>"
        assert doc["tree"]["children"] == []
        assert doc["tree"]["minsys"] == []


class TestClosure:
    def test_ld(self, capsys):
        rc, out, _ = run(capsys, "closure", "--kind", "ld", "5")
        assert (rc, out) == (0, "<5,9,13,17,21>\n")

    def test_pl(self, capsys):
        rc, out, _ = run(capsys, "closure", "--kind", "pl", "4,7")
        assert (rc, out) == (0, "<4,7,9>\n")

    def test_inside(self, capsys):
        rc, out, _ = run(capsys, "closure", "--kind", "ld", "4,7",
                         "--inside", "<4,7,9>")
        assert (rc, out) == (0, "<4,7,13>\n")

    def test_vsystem(self, capsys):
        rc, out, _ = run(capsys, "closure", "--kind", "ld",
                         "--vsystem", "<5,9,13,17,21>")
        assert (rc, out) == (0, "5\n")
        rc, out, _ = run(capsys, "closure", "--kind", "pl",
                         "--vsystem", "<3,5,7>")
        assert (rc, out) == (0, "3,5\n")

    def test_structured(self, capsys):
        rc, out, _ = run(capsys, "closure", "--kind", "ld", "5",
                         "--format", "structured")
        assert (rc, out) == (0, '{"frobenius": 16, "genus": 10, "kind": "ld", '
                                '"msg": [5, 9, 13, 17, 21], "sg": "<5,9,13,17,21>"}\n')

    def test_inside_structured(self, capsys):
        rc, out, _ = run(capsys, "closure", "--kind", "ld", "4,7",
                         "--inside", "<4,7,9>", "--format", "structured")
        assert (rc, out) == (0, '{"frobenius": 10, "genus": 7, "kind": "ld", '
                                '"msg": [4, 7, 13], "sg": "<4,7,13>"}\n')

    def test_vsystem_structured(self, capsys):
        rc, out, _ = run(capsys, "closure", "--kind", "pl",
                         "--vsystem", "<3,5,7>", "--format", "structured")
        assert (rc, out) == (
            0, '{"kind": "pl", "sg": "<3,5,7>", "vsystem": [3, 5]}\n')

    def test_inside_takes_no_vsystem(self, capsys):
        assert run(capsys, "closure", "--kind", "pl", "--vsystem", "<2,3>",
                   "--inside", "<1>") == (
            1, "", "rvar: error: --inside only applies to a generator list\n")

    def test_an_element_outside_inside_is_a_domain_error(self, capsys):
        # 7 is in <4,6,7> and 5 is not: the first element outside is named
        assert run(capsys, "closure", "--kind", "ld", "5,7", "--inside", "<4,6,7>") == (
            2, "", "rvar: error: 5 is not in <4,6,7>\n")

    def test_gens_and_vsystem_conflict(self, capsys):
        rc, _, err = run(capsys, "closure", "--kind", "ld", "5",
                         "--vsystem", "<5,9>")
        assert rc == 1
        assert "either generator list or --vsystem" in err

    def test_neither_gens_nor_vsystem(self, capsys):
        rc, out, err = run(capsys, "closure", "--kind", "pl")
        assert (rc, out) == (1, "")
        assert err == "rvar: error: give a generator list or --vsystem\n"

    def test_empty_generator_list_is_a_parse_error(self, capsys):
        # as for `rvar msg "<>"`: exit 1, not the library's EmptyGenerators
        for text in (",", ""):
            rc, out, err = run(capsys, "closure", "--kind", "pl", text)
            assert (rc, out) == (1, "")
            assert err == "rvar: error: empty generator list in %r\n" % text

    def test_sieve_bound_follows_the_least_generator(self, capsys):
        rc, out, _ = run(capsys, "closure", "--kind", "ld", "5,2000")
        assert (rc, out) == (0, "<5,9,13,17,21>\n")
        rc, out, err = run(capsys, "closure", "--kind", "pl", "1415")
        assert (rc, out) == (2, "")
        assert err == ("rvar: error: sieve for the pl closure of 1415 "
                       "exceeds 4000000 entries\n")

    def test_a_long_generator_list_is_refused_in_one_short_line(self, capsys):
        # both sieve bounds for these 3,000 generators pass the sieve limit
        # (the conductor is about 3 * 10**8); the message names the list by
        # its ends and count, not each generator
        text = "<%s>" % ",".join(map(str, range(1_000_000, 1_003_000)))
        rc, out, err = run(capsys, "msg", text)
        assert (rc, out) == (2, "")
        assert err == ("rvar: error: sieve for <1000000,...,1002999 (3000 generators)> "
                       "exceeds 4000000 entries\n")
        assert len(err.encode()) < 200

    def test_a_long_generator_list_within_erdos_grahams_bound_is_answered(self, capsys):
        # Brauer's bound for 3000..5999 passes the sieve limit, Erdős and
        # Graham's, 5997, does not; every generator is minimal
        listed = ",".join(map(str, range(3000, 6000)))
        rc, out, err = run(capsys, "msg", "<%s>" % listed)
        assert (rc, out, err) == (0, listed + "\n", "")

    def test_pl_300(self, capsys):
        # msg of the pl closure of {g}: g and k(g + 1) - 1 for 2 <= k <= g
        gens = [300] + [k * 301 - 1 for k in range(2, 301)]
        rc, out, _ = run(capsys, "closure", "--kind", "pl", "300")
        assert (rc, out) == (0, "<%s>\n" % ",".join(map(str, gens)))
        rc, out, _ = run(capsys, "closure", "--kind", "pl", "300",
                         "--format", "structured")
        assert rc == 0
        assert json.loads(out) == {"frobenius": 89999, "genus": 45149,
                                   "kind": "pl", "msg": gens,
                                   "sg": "<%s>" % ",".join(map(str, gens))}

    def test_unclosed_vsystem_is_a_domain_error(self, capsys):
        rc, _, err = run(capsys, "closure", "--kind", "ld",
                         "--vsystem", "<5,7,9>")
        assert rc == 2
        assert "escapes" in err


class TestRestrict:
    def test_text(self, capsys):
        rc, out, err = run(capsys, "restrict", "--interval", INTERVAL,
                           "--by", "<5,7,9>")
        assert rc == 0
        assert err == ""
        assert out == ("<5,7,16,18>\n"
                       "<5,12,14,16,18>\n"
                       "<5,12,16,18,19>\n"
                       "<5,12,16,18>\n")

    def test_structured(self, capsys):
        rc, out, err = run(capsys, "restrict", "--interval", INTERVAL,
                           "--by", "<5,7,9>", "--format", "structured")
        assert (rc, err) == (0, "")
        assert out == (
            '{"fdelta": -1, "genus": 9, "msg": [5, 7, 16, 18], "sg": "<5,7,16,18>"}\n'
            '{"fdelta": 7, "genus": 10, "msg": [5, 12, 14, 16, 18], '
            '"sg": "<5,12,14,16,18>"}\n'
            '{"fdelta": 14, "genus": 11, "msg": [5, 12, 16, 18, 19], '
            '"sg": "<5,12,16,18,19>"}\n'
            '{"fdelta": 19, "genus": 12, "msg": [5, 12, 16, 18], '
            '"sg": "<5,12,16,18>"}\n')

    def test_truncation_note_goes_to_stderr(self, capsys):
        rc, out, err = run(capsys, "restrict", "--restricted", RESTRICTED,
                           "--by", "<2,3>", "--genus-bound", "7")
        assert rc == 0
        assert err == "note: truncated at genus 7\n"
        assert out == "<4,6,7>\n<4,6,11,13>\n<4,6,11>\n<4,6,13,15>\n"


class TestVerify:
    def test_small_run(self, capsys):
        rc, out, err = run(capsys, "verify", "--count", "4", "--seed", "0",
                           "--genus-bound", "10")
        assert rc == 0
        assert err == ""
        lines = out.splitlines()
        assert all(line.startswith("ok ") for line in lines[:-1])
        assert lines[-1] == "all checks passed (seed=0, count=4)"

    def test_a_negative_count_is_a_usage_error(self, capsys):
        rc, out, err = run(capsys, "verify", "--count", "-1")
        assert (rc, out) == (1, "")
        assert err == "rvar: error: --count must be at least 0, not -1\n"
        # no random family is drawn at --count 0, but the fixtures are checked
        rc, out, err = run(capsys, "verify", "--count", "0", "--genus-bound", "8")
        assert (rc, err) == (0, "")
        assert out.splitlines()[-1] == "all checks passed (seed=0, count=0)"
        assert len(out.splitlines()) == 4

    def test_a_failed_check_is_a_domain_error(self, capsys, monkeypatch):
        import rvar.oracle
        monkeypatch.setattr(rvar.oracle, "oracle_members", lambda desc, bound: set())
        rc, out, err = run(capsys, "verify", "--count", "0")
        assert rc == 2
        assert out.splitlines()[0] == "FAIL interval fixture (0 members)"
        assert len(out.splitlines()) == 3
        assert err == "rvar: error: 3 check(s) failed\n"

    def test_random_families_are_drawn_as_their_checks_come_up(self, monkeypatch):
        # the first five lines are the three fixtures and two random checks,
        # so no more than two families have been drawn when they are read
        import itertools

        import rvar.oracle
        draws = []

        def counted(make):
            def draw(*args):
                draws.append(make.__name__)
                return make(*args)
            return draw
        for name in ("random_interval", "random_restricted"):
            monkeypatch.setattr(rvar.oracle, name, counted(getattr(rvar.oracle, name)))
        args = cli.build_parser(["verify"]).parse_args(["verify", "--count", "1000"])
        lines, _, _ = args.handler(args)
        assert [line.split(" (")[0] for line in itertools.islice(lines, 5)] == [
            "ok interval fixture", "ok restricted fixture",
            "ok generated fixture closure", "ok random interval #0",
            "ok random restricted #1"]
        assert draws == ["random_interval", "random_restricted"]

    def test_a_low_bound_draws_maxima_that_fit_it(self, capsys):
        # random maxima have genus at most the bound, so no walk is refused
        rc, out, err = run(capsys, "verify", "--seed", "7", "--count", "10",
                           "--genus-bound", "6")
        assert rc == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 14
        assert all(line.startswith("ok ") for line in lines[:13])
        assert lines[13] == "all checks passed (seed=7, count=10)"

    def test_a_bound_below_the_fixture_is_refused_before_any_check(self, capsys):
        # the restricted fixture's maximum <4,6,7> has genus 5
        rc, out, err = run(capsys, "verify", "--seed", "7", "--genus-bound", "3")
        assert rc == 2
        assert out == ""
        assert err == "rvar: error: genus bound 3 is below the genus 5 of the maximum\n"

    def test_fixture_systems_are_checked_against_the_oracle(self, capsys, monkeypatch):
        import rvar.oracle
        monkeypatch.setattr(rvar.oracle, "minimal_system_from_members",
                            lambda members, m: frozenset({-1}))
        rc, out, err = run(capsys, "verify", "--count", "1", "--genus-bound", "8")
        assert rc == 2
        assert [line.split(" (")[0] for line in out.splitlines()] == [
            "FAIL interval fixture", "FAIL restricted fixture",
            "FAIL generated fixture closure", "ok random interval #0"]
        assert err == "rvar: error: 3 check(s) failed\n"


# one small valid input per subcommand with a structured form
SAMPLES = {
    "info": ["<5,6,7>"],
    "msg": ["<5,6,7>"],
    "frobenius": ["<5,6,13,14>", "--inside", "<5,6,7>"],
    "genus": ["<5,6,7>"],
    "intersect": ["<5,7,9>", "<5,9,13,17,21>"],
    "chain": ["<5,6>", "--inside", "<5,6,7>"],
    "minsys": ["<5,6,13,14>", "--interval", INTERVAL],
    "tree": ["--interval", INTERVAL],
    "genus-level": ["--restricted", RESTRICTED, "--genus", "8"],
    "descendants": ["<5,6,13,14>", "--interval", INTERVAL],
    "closure": ["--kind", "ld", "5"],
    "restrict": ["--interval", INTERVAL, "--by", "<5,7,9>"],
}


# The command line as data, apart from how argparse lays out its help: each
# subcommand in order with its help line, and each of its arguments, -h
# aside, as (option strings, or a positional's name), required, default,
# choices, nargs and metavar.  The family flags form one required group.
_ = None
SG = ("sg", True, _, _, _, _)
FAMILY = [(("--interval",), False, _, _, _, "LO:HI"),
          (("--restricted",), False, _, _, _, "ELEMS:T"),
          (("--generated",), False, _, _, _, "S1;S2:DELTA")]
BOUND = (("--genus-bound",), False, 40, _, _, "N")
TEXT = (("--format",), False, "text", ("text", "structured"), _, _)
DOT = (("--format",), False, "text", ("text", "dot", "structured"), _, _)
INSIDE = (("--inside",), False, _, _, _, "T")
SURFACE = [
    ("info", "summary of one semigroup", [SG, TEXT]),
    ("msg", "minimal generating set", [SG, TEXT]),
    ("frobenius", "Frobenius number, restricted with --inside", [SG, INSIDE, TEXT]),
    ("genus", "number of gaps", [SG, TEXT]),
    ("intersect", "intersection of semigroups", [("sgs", True, _, _, "+", _), TEXT]),
    ("chain", "adjunction chain from SG up to --inside",
     [SG, (("--inside",), True, _, _, _, "T"), TEXT]),
    ("minsys", "minimal generating system within a family", [SG, *FAMILY, TEXT]),
    ("tree", "family tree rooted at the maximum", [*FAMILY, BOUND, DOT]),
    ("genus-level", "members with an exact genus",
     [*FAMILY, (("--genus",), True, _, _, _, "G"), TEXT]),
    ("descendants", "subtree hanging from one member", [SG, *FAMILY, BOUND, DOT]),
    ("closure", "smallest ld/pl semigroup containing gens",
     [(("--kind",), True, _, ("ld", "pl"), _, _), ("gens", False, _, _, "?", "A1,A2,..."),
      INSIDE, (("--vsystem",), False, _, _, _, "SG"), TEXT]),
    ("restrict", "intersect every member with --by",
     [*FAMILY, (("--by",), True, _, _, _, "U"), BOUND, TEXT]),
    ("verify", "cross-check fast paths against brute force",
     [(("--seed",), False, 0, _, _, _), (("--count",), False, 20, _, _, _),
      (("--genus-bound",), False, 12, _, _, "N")]),
]


def _surface(parser):
    """The SURFACE records of the subparsers that parser holds."""
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    got = []
    for choice in subparsers._choices_actions:
        sub = subparsers.choices[choice.dest]
        args = [(tuple(a.option_strings) or a.dest, a.required, a.default,
                 a.choices and tuple(a.choices), a.nargs, a.metavar)
                for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        got.append((choice.dest, choice.help, args))
        groups = [(tuple(a.option_strings[0] for a in g._group_actions), g.required)
                  for g in sub._mutually_exclusive_groups]
        family = FAMILY[0] in args
        assert groups == ([(("--interval", "--restricted", "--generated"), True)]
                          if family else []), choice.dest
    assert list(subparsers.choices) == [name for name, _, _ in got]
    return got


def test_the_command_line_surface_is_pinned():
    assert _surface(cli.build_parser()) == SURFACE
    # a request builds only the subparser that it names, and the same one
    for record in SURFACE:
        assert _surface(cli.build_parser([record[0]])) == [record]
    for argv in ([], ["-h"], ["mesg"], ["--", "msg"]):
        assert _surface(cli.build_parser(argv)) == SURFACE


# with one subparser built, the usage line still lists every subcommand
USAGE = ("usage: rvar [-h]\n"
         "            {info,msg,frobenius,genus,intersect,chain,minsys,tree,genus-level,"
         "descendants,closure,restrict,verify}\n"
         "            ...\n")


@pytest.mark.parametrize("argv, err", [
    (["msg", "<5,6,7>", "--bogus"],
     USAGE + "rvar: error: unrecognized arguments: --bogus\n"),
    (["tree"],
     "usage: rvar tree [-h]\n"
     "                 (--interval LO:HI | --restricted ELEMS:T | --generated S1;S2:DELTA)\n"
     "                 [--genus-bound N] [--format {text,dot,structured}]\n"
     "rvar tree: error: one of the arguments --interval --restricted --generated"
     " is required\n"),
    ([], USAGE + "rvar: error: the following arguments are required: cmd\n"),
    (["mesg"], USAGE.replace("...\n", "...\nrvar: error: argument cmd: invalid choice:"
                                      " 'mesg' (choose from 'info', 'msg', 'frobenius',"
                                      " 'genus', 'intersect', 'chain', 'minsys', 'tree',"
                                      " 'genus-level', 'descendants', 'closure',"
                                      " 'restrict', 'verify')\n")),
])
def test_usage_errors_are_pinned(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
    assert run(capsys, *argv) == (1, "", err)


def test_every_structured_subcommand_goes_through_the_emitter(capsys):
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    structured = sorted(
        name for name, sub in subparsers.choices.items()
        if any("--format" in a.option_strings and "structured" in a.choices
               for a in sub._actions))
    assert structured == sorted(SAMPLES)
    for name in structured:
        rc, out, _ = run(capsys, name, *SAMPLES[name])
        assert rc == 0 and out.strip(), name
        rc, out, _ = run(capsys, name, *SAMPLES[name], "--format", "structured")
        assert rc == 0 and out, name
        for line in out.splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True), name


class _Writes(io.StringIO):
    """A stdout that records the size of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("argv", [
    ["tree", "--restricted", ":<1>", "--genus-bound", "9"],
    ["tree", "--restricted", ":<1>", "--genus-bound", "9", "--format", "dot"],
    ["genus-level", "--restricted", ":<1>", "--genus", "10"],
])
def test_output_is_written_in_bounded_chunks(argv, monkeypatch):
    whole = _Writes()
    monkeypatch.setattr(sys, "stdout", whole)
    assert cli.main(argv) == 0
    # one write for the whole output, not one per line or per member
    assert len(whole.sizes) == 1 and whole.getvalue().count("\n") > 200
    monkeypatch.setattr(cli, "_CHUNK", 500)
    chunked = _Writes()
    monkeypatch.setattr(sys, "stdout", chunked)
    assert cli.main(argv) == 0
    assert chunked.getvalue() == whole.getvalue()
    longest = max(map(len, whole.getvalue().splitlines()))
    assert len(chunked.sizes) > 1
    assert max(chunked.sizes) <= 500 + longest + 1


class TestErrorPaths:
    def test_parse_error_names_the_token(self, capsys):
        rc, _, err = run(capsys, "msg", "<5,6,x>")
        assert rc == 1
        assert err == "rvar: error: bad generator token 'x' in '<5,6,x>'\n"

    def test_a_non_ascii_digit_is_a_parse_error(self, capsys):
        # str.isdigit passes '²', which int() refuses with a traceback
        assert run(capsys, "msg", "<5,²>") == (
            1, "", "rvar: error: bad generator token '²' in '<5,²>'\n")

    def test_integer_lists_take_decimal_digits_only(self, capsys):
        # int() alone would read '1_0' as 10; parse_semigroup refuses it too
        assert run(capsys, "closure", "--kind", "pl", "1_0,11") == (
            1, "", "rvar: error: bad integer '1_0'\n")
        assert run(capsys, "tree", "--restricted", "4,+6:<4,6,7>") == (
            1, "", "rvar: error: bad integer '+6'\n")
        # a negative forced element parses, and the family refuses it
        rc, out, err = run(capsys, "tree", "--restricted=-1:<4,6,7>")
        assert (rc, out) == (2, "")
        assert err == "rvar: error: forced element -1 is not in <4,6,7>\n"

    def test_unbalanced_brackets_are_a_parse_error(self, capsys):
        for text in ("<5,6", "5,6>"):
            assert run(capsys, "msg", text) == (
                1, "", "rvar: error: unbalanced angle brackets in %r\n" % text)

    @pytest.mark.parametrize("kind, text", [
        ("restricted", "1<1>"), ("interval", "<2,3>"), ("generated", "<2,3>"),
    ])
    def test_a_family_needs_its_outer_semigroup(self, capsys, kind, text):
        assert run(capsys, "tree", "--" + kind, text, "--genus-bound", "2") == (
            1, "", "rvar: error: --%s expects a ':' before the outer semigroup\n" % kind)

    def test_domain_error_not_contained(self, capsys):
        rc, _, err = run(capsys, "tree", "--interval", "<5,7>:<5,6>")
        assert rc == 2
        assert err == "rvar: error: <5,7> is not contained in <5,6>\n"

    def test_domain_error_gcd(self, capsys):
        rc, _, err = run(capsys, "info", "4,6")
        assert rc == 2
        assert err == "rvar: error: gcd(4,6) = 2, not 1\n"

    def test_domain_error_equal_semigroups(self, capsys):
        rc, _, err = run(capsys, "frobenius", "<5,6,7>",
                         "--inside", "<5,6,7>")
        assert rc == 2
        assert "in itself" in err

    def test_internal_error_has_its_own_exit_code(self, capsys, monkeypatch):
        def broken(desc, u, genus_bound):
            raise InvariantError("no maximum element")
        monkeypatch.setattr(cli.engine, "restriction_of", broken)
        rc, out, err = run(capsys, "restrict", "--interval", INTERVAL, "--by", "<5,6,7>")
        assert rc == 3
        assert out == ""
        assert err == "rvar: internal error: InvariantError: no maximum element\n"

    @pytest.mark.parametrize("fault, line", [
        (KeyError(17), "KeyError: 17"),
        (RecursionError("maximum recursion depth exceeded"),
         "RecursionError: maximum recursion depth exceeded"),
    ])
    def test_any_fault_is_one_internal_error_line(self, capsys, monkeypatch, fault, line):
        # a library call fails on the 5th member of the tree: the 4 lines
        # made before it are still written, then one line and exit 3
        calls = []

        def failing(s):
            calls.append(s)
            if len(calls) == 5:
                raise fault
            return format_semigroup(s)
        monkeypatch.setattr(cli, "format_semigroup", failing)
        rc, out, err = run(capsys, "tree", "--restricted", ":<1>", "--genus-bound", "4")
        assert rc == 3
        assert out.splitlines() == ["<1>  [1]  fdelta=-1", "  <2,3>  [2,3]  fdelta=1",
                                    "    <3,4,5>  [3,4,5]  fdelta=2",
                                    "      <4,5,6,7>  [4,5,6,7]  fdelta=3"]
        assert err == "rvar: internal error: %s\n" % line

    @pytest.mark.parametrize("argv", [
        ["tree", "--restricted", ":<1>"],
        ["descendants", "<1>", "--restricted", ":<1>"],
        ["genus-level", "--restricted", ":<1>", "--genus", "40"],
        ["restrict", "--restricted", ":<1>", "--by", "<2,3>"],
    ])
    def test_member_budget_is_a_domain_error(self, capsys, monkeypatch, argv):
        # the default genus bound 40 reaches past 10^8 members of the tree of
        # all semigroups; the budget stops the walk first
        from rvar import engine
        monkeypatch.setattr(engine, "MAX_MEMBERS", 1000)
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == "rvar: error: walk exceeds 1000 members\n"

    @pytest.mark.parametrize("argv", [
        ["msg", "<5,6>"],
        ["tree", "--restricted", ":<1>", "--genus-bound", "13"],
    ])
    def test_a_closed_stdout_exits_quietly(self, argv):
        # the reader of stdout is gone before the first write, as when
        # `rvar tree ... | head -1` has read its line
        r, w = os.pipe()
        os.close(r)
        src = str(pathlib.Path(cli.__file__).parents[1])
        try:
            done = subprocess.run(
                [sys.executable, "-m", "rvar.cli", *argv], stdout=w,
                stderr=subprocess.PIPE, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(w)
        assert (done.returncode, done.stderr) == (141, "")

    def test_unknown_subcommand(self, capsys):
        rc, _, err = run(capsys, "bogus")
        assert rc == 1
        assert "invalid choice" in err

    def test_missing_variety_argument(self, capsys):
        rc, _, err = run(capsys, "tree")
        assert rc == 1

    def test_help_exits_zero(self, capsys):
        rc, out, _ = run(capsys, "--help")
        assert rc == 0
        assert "tree" in out
