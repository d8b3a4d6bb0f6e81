"""Seeded request streams for the three workloads.

Every stream is a pure function of the seed: it uses only `random.Random`
and the benchmark's own brute-force arithmetic in `anchors`, never the
program under test, so the same seed always yields the same requests.
A stream yields groups of requests; a run checks the clock only between
groups, so it always measures whole groups.

A request is a dict with
  key   -- the golden key: the rvar arguments joined by spaces for CLI
           requests, a short query name for library queries;
  kind  -- what the checker must verify;
  argv  -- rvar CLI arguments (CLI workloads only);
plus whatever parameters the checker needs.
"""

import itertools
import random
from math import gcd
from functools import reduce

import anchors

FULL_TREE = ":<1>"  # Restricted(no forced elements, N): the tree of all semigroups

# Largest genus of each request kind that stays near 1 s per request.
TREE_GENUS_LEVELS = range(9, 17)
TREE_STRUCTURED_LEVELS = range(9, 16)
TREE_BOUNDS = range(8, 15)

CLOSURE_GENS = range(8, 17)
CLOSURE_EXTRAS = range(2, 8)

# Families that recur through a session, so work and caches are shared.
# Interval(lo, hi) by generators; Generated(f, delta) by generators.
# Each has 44 to 166 members, so no query is trivially small, and no family's
# views dwarf the rest, so the tail does not hang on one or two queries.
INTERVALS = (
    ((8, 9), (8, 9, 10, 11, 12)),
    ((7, 9), (7, 8, 9, 10, 11, 12, 13)),
    ((7, 8), (7, 8, 9, 10, 11, 12, 13)),
    ((9, 11, 12), (9, 10, 11, 12, 13, 14, 15, 16, 17)),
)
GENERATED = (
    (((7, 9, 11), (6, 10, 11, 13), (8, 11, 13, 14, 15)), (4, 5, 6, 7)),
    (((9, 11, 13, 14), (8, 10, 13, 15, 17)), (5, 6, 7, 8, 9)),
    (((10, 11, 13, 14), (9, 12, 13, 14, 15, 16, 17)), (6, 7, 8, 9, 10, 11)),
    (((7, 10, 11), (6, 9, 11, 13, 14), (8, 9, 12, 13, 15)), (3, 4, 5)),
)
RESTRICT_BY = ("<4,5>", "<5,7>", "<6,7,8>", "<4,6,7>", "<7,9,11,13>")
# Every family above is finite well inside this bound, so every walk completes.
SESSION_GENUS_BOUND = 60


def _tree_request(cmd, n, structured):
    if cmd == "tree":
        argv = ["tree", "--restricted", FULL_TREE, "--genus-bound", str(n)]
    else:
        argv = ["genus-level", "--restricted", FULL_TREE, "--genus", str(n)]
    if structured:
        argv += ["--format", "structured"]
    return {"key": " ".join(argv), "kind": cmd, "n": n, "structured": structured,
            "argv": argv}


def tree_grid():
    """Every semigroup-tree request, in a fixed order."""
    return ([_tree_request("genus-level", g, False) for g in TREE_GENUS_LEVELS]
            + [_tree_request("genus-level", g, True) for g in TREE_STRUCTURED_LEVELS]
            + [_tree_request("tree", b, False) for b in TREE_BOUNDS])


def semigroup_tree(seed):
    """Rounds over the whole grid of level and tree sizes, each round in a seeded order.

    The tree of all numerical semigroups has no parameter besides the genus,
    so each group is one whole round of the grid and the seed sets its order;
    a run then weighs every size the same, whatever the seed.
    """
    rng = random.Random(seed)
    while True:
        rnd = tree_grid()
        rng.shuffle(rnd)
        yield rnd


def _inside_choices(gens):
    """Small extras e such that <gens, e> is a numerical semigroup."""
    return [e for e in CLOSURE_EXTRAS if reduce(gcd, gens, e) == 1]


def closure_group(kind, gens, extra):
    """Three requests: the closure of gens, its minimal system, the closure inside T.

    T is generated by gens plus the extra element, so it contains gens.  The
    minimal-system request takes the benchmark's own closure, so a stream
    never depends on the program's answers.
    """
    text = ",".join(map(str, gens))
    closed = anchors.fmt(anchors.kind_closure(gens, -1 if kind == "ld" else 1))
    inside = sorted(set(gens) | {extra})
    t = "<%s>" % ",".join(map(str, inside))
    out = []
    for argv, fields in (
            (["closure", "--kind", kind, text], {}),
            (["closure", "--kind", kind, "--vsystem", closed], {"sg": closed}),
            (["closure", "--kind", kind, text, "--inside", t], {"inside": inside})):
        out.append({"key": " ".join(argv), "kind": "vsystem" if "sg" in fields else "closure",
                    "closure": kind, "gens": gens, "argv": argv, **fields})
    return out


def closure_pool():
    """Every (kind, gens, extra) a closure-cli stream can draw."""
    return [(kind, list(gens), e)
            for k in (2, 3) for gens in itertools.combinations(CLOSURE_GENS, k)
            for kind in ("ld", "pl") for e in _inside_choices(gens)]


def closure_cli(seed):
    """Groups drawn uniformly: 2 or 3 generators, a kind, and an extra for T."""
    rng = random.Random(seed)
    while True:
        gens = sorted(rng.sample(CLOSURE_GENS, rng.choice((2, 3))))
        kind = rng.choice(("ld", "pl"))
        yield closure_group(kind, gens, rng.choice(_inside_choices(gens)))


def families():
    """(name, spec) for every family of the session pool."""
    return ([("I%d" % i, ("interval",) + spec) for i, spec in enumerate(INTERVALS)]
            + [("G%d" % i, ("generated",) + spec) for i, spec in enumerate(GENERATED)])


def family_members(spec):
    """The family's members as bitmasks, by the benchmark's own brute force."""
    if spec[0] == "interval":
        return anchors.interval_members(spec[1], spec[2], SESSION_GENUS_BOUND)
    return anchors.generated_members(spec[1], spec[2])


def view_tops(spec):
    """The two members one or two levels below the maximum with the largest views.

    Most such members head a view of a few members only; those views take
    well under a millisecond and tell little about the view machinery.
    """
    members = family_members(spec)
    delta = anchors.sieve(spec[2])
    g0 = anchors.genus(delta)
    tops = [m for m in members if g0 < anchors.genus(m) <= g0 + 2]
    size = {m: len(anchors.view_members(members, m, delta)) for m in tops}
    tops.sort(key=lambda m: (-size[m], anchors.fmt(m)))
    return sorted(anchors.fmt(m) for m in tops[:2])


def _query(kind, name, spec, param=None):
    req = {"kind": kind, "family": name, "spec": spec}
    if kind == "view":
        req["top"] = param
    elif kind == "restrict":
        req["by"] = param
    req["key"] = " ".join([kind, name] + ([param] if param else []))
    return req


def session_pool():
    """Every query a family-session stream can draw."""
    out = []
    for name, spec in families():
        out.append(_query("tree", name, spec))
        out.append(_query("minsys", name, spec))
        out += [_query("view", name, spec, t) for t in view_tops(spec)]
        out += [_query("restrict", name, spec, u) for u in RESTRICT_BY]
    return out


def family_session(seed):
    """Rounds over every query of the pool, each round in a seeded order.

    Each group is one whole round, so every run weighs the queries alike and
    the seed sets the order, which decides what the caches hold when.
    """
    rng = random.Random(seed)
    pool = session_pool()
    while True:
        rnd = pool[:]
        rng.shuffle(rnd)
        yield rnd


STREAMS = {
    "semigroup-tree": semigroup_tree,
    "family-session": family_session,
    "closure-cli": closure_cli,
}


def requests(workload, seed):
    """The workload's stream, one request at a time."""
    return itertools.chain.from_iterable(STREAMS[workload](seed))


def take(workload, seed, n):
    return list(itertools.islice(requests(workload, seed), n))
