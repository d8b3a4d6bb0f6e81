"""Independent checks of the program's outputs.

Semigroups are handled here as Python int bitmasks of their members below a
window W, with every integer >= W taken to be a member.  Nothing in this
module calls the program's own arithmetic, so a defect in `rvar.core`
cannot hide itself from these checks.  The one exception is the oracle for
interval families, `rvar.oracle.oracle_members`, which is the program's own
brute-force reference and is independent of the structural walk it checks.
"""

import hashlib
import json

# OEIS A007323: number of numerical semigroups of genus g, g = 0..16
# (Bras-Amoros, Semigroup Forum 2008).
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693,
           2857, 4806)

WINDOW = 1024


class CheckFailed(Exception):
    """An output disagrees with its anchor."""


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def _full(w):
    return (1 << w) - 1


def sieve(gens, w=WINDOW) -> int:
    """Members below w of the monoid generated by gens, as a bitmask."""
    mask, full = 1, _full(w)
    for g in gens:
        if g <= 0:
            raise CheckFailed("generator %r is not positive" % (g,))
        step = g
        # doubling: after shifts g, 2g, 4g, ... every multiple below w is added
        while step < w:
            mask |= (mask << step) & full
            step <<= 1
    return mask


def conductor(mask, w=WINDOW) -> int:
    """Smallest c with [c, w) inside mask; raises unless that tail is certified."""
    c = (~mask & _full(w)).bit_length()
    m = multiplicity(mask, w)
    # a run of m consecutive members repeats forever by adding m
    if w - c < m:
        raise CheckFailed("window %d too small to certify the tail" % w)
    return c


def multiplicity(mask, w=WINDOW) -> int:
    nz = mask & ~1
    return (nz & -nz).bit_length() - 1 if nz else 1


def members(mask, limit):
    return [x for x in range(limit + 1) if mask >> x & 1]


def genus(mask, w=WINDOW) -> int:
    c = conductor(mask, w)
    return c - bin(mask & _full(c)).count("1")


def msg(mask, w=WINDOW) -> tuple:
    """Minimal generators: nonzero members that are no sum of two nonzero members."""
    c = conductor(mask, w)
    top = c + multiplicity(mask, w)
    nz = mask & ~1 & _full(top + 1)
    sums = 0
    for a in members(nz, top):
        sums |= nz << a
    return tuple(x for x in members(nz, top) if not sums >> x & 1)


def fmt(mask, w=WINDOW) -> str:
    return "<%s>" % ",".join(map(str, msg(mask, w)))


def parse(text: str, w=WINDOW) -> int:
    """Bitmask of a '<a,b,...>' or 'a,b,...' generator list."""
    body = text.strip().strip("<>")
    try:
        gens = [int(t) for t in body.split(",")]
    except ValueError:
        raise CheckFailed("not a generator list: %r" % text) from None
    mask = sieve(gens, w)
    conductor(mask, w)
    return mask


def kind_closure(gens, off, w=WINDOW) -> int:
    """Smallest set holding 0 and gens, closed under a+b and a+b+off (a, b > 0)."""
    full = _full(w)
    mask = sieve(gens, w)
    while True:
        nz = mask & ~1
        grown = mask
        for a in members(nz, w - 1):
            grown |= ((nz << a) | (nz << max(a + off, 0))) & full
        if grown == mask:
            break
        mask = grown
    conductor(mask, w)
    return mask


def is_kind_closed(mask, off, w=WINDOW) -> bool:
    c = conductor(mask, w)
    ms = [x for x in members(mask, c) if x]
    return all(mask >> (a + b + off) & 1 or a + b + off >= c
               for a in ms for b in ms if b <= a)


def _expect(ok, what):
    if not ok:
        raise CheckFailed(what)


# ------------------------------------------------------------ semigroup-tree

def check_genus_level(out: str, g: int, structured: bool):
    lines = out.splitlines()
    _expect(len(lines) == A007323[g],
            "genus %d: %d lines, A007323 says %d" % (g, len(lines), A007323[g]))
    seen = set()
    for line in lines:
        sg = json.loads(line)["sg"] if structured else line
        if structured:
            _expect(json.loads(line)["genus"] == g, "record of wrong genus: %s" % line)
        _expect(genus(parse(sg)) == g, "%s does not have genus %d" % (sg, g))
        seen.add(sg)
    _expect(len(seen) == len(lines), "duplicate semigroups at genus %d" % g)


def check_tree(out: str, bound: int):
    lines = out.splitlines()
    _expect(lines and lines[-1] == "# truncated at genus %d" % bound,
            "tree of N up to genus %d lacks its truncation line" % bound)
    per_depth = [0] * (bound + 1)
    for line in lines[:-1]:
        depth = (len(line) - len(line.lstrip(" "))) // 2
        sg = line.split()[0]
        # in the tree of N every child has one more gap than its parent
        _expect(depth <= bound and genus(parse(sg)) == depth,
                "%s at depth %d" % (sg, depth))
        per_depth[depth] += 1
    _expect(per_depth == list(A007323[:bound + 1]),
            "tree counts %s differ from A007323" % per_depth)


# --------------------------------------------------------------- closure-cli

def check_closure(out: str, kind: str, gens, inside=None):
    off = -1 if kind == "ld" else 1
    got = parse(out)
    want = kind_closure(gens, off)
    if inside is not None:
        want &= sieve(inside)
    else:
        _expect(is_kind_closed(got, off), "%s is not %s-closed" % (out.strip(), kind))
    _expect(got == want, "closure of %s under %s: got %s, want %s"
            % (gens, kind, out.strip(), fmt(want)))


def check_vsystem(out: str, kind: str, sg: str):
    """--vsystem must close back to sg, and dropping any element must not."""
    off = -1 if kind == "ld" else 1
    system = [int(t) for t in out.split(",")]
    m = parse(sg)
    _expect(kind_closure(system, off) == m,
            "%s does not close back to %s" % (out.strip(), sg))
    for x in system:
        rest = [y for y in system if y != x]
        _expect(not rest or kind_closure(rest, off) != m,
                "%s is not minimal for %s: %d is redundant" % (out.strip(), sg, x))


# ------------------------------------------------------------ family-session

def interval_members(lo_gens, hi_gens, genus_bound):
    """Every semigroup between lo and hi up to the genus bound, by exhaustive descent."""
    lo, hi = sieve(lo_gens), sieve(hi_gens)
    _expect(lo & ~hi == 0, "interval with lo not inside hi")
    seen, stack = {hi}, [hi]
    while stack:
        s = stack.pop()
        if genus(s) >= genus_bound:
            continue
        for x in msg(s):
            child = s & ~(1 << x)
            if not lo >> x & 1 and child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def chain_family(f_masks, delta):
    """Union of the chains from each member of f up to delta."""
    out = set()
    for s in f_masks:
        cur = s
        out.add(cur)
        while cur != delta:
            missing = delta & ~cur
            cur |= 1 << (missing.bit_length() - 1)
            out.add(cur)
    return out


def generated_members(f_gens, delta_gens):
    """Every finite intersection of chain members, by closing under pairwise &."""
    delta = sieve(delta_gens)
    fam = chain_family([sieve(g) for g in f_gens], delta)
    frontier = set(fam)
    while frontier:
        new = {a & b for a in frontier for b in fam} - fam
        fam |= new
        frontier = new
    return fam


def parent_in_tree(s, delta):
    """s with its restricted Frobenius number in delta adjoined."""
    missing = delta & ~s
    return s | 1 << (missing.bit_length() - 1)


def view_members(family, top, delta):
    """Members whose chain up to delta passes through top."""
    out = set()
    for s in family:
        cur = s
        while cur != top and cur != delta and cur & ~top == 0:
            cur = parent_in_tree(cur, delta)
        if cur == top:
            out.add(s)
    return out


def check_member_set(got_lines, want_masks, what):
    got = [parse(line) for line in got_lines]
    _expect(len(set(got)) == len(got), "%s: duplicate members" % what)
    _expect(set(got) == set(want_masks),
            "%s: %d members, the anchor has %d" % (what, len(got), len(want_masks)))
