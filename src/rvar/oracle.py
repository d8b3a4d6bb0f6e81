"""Brute-force reference implementations used to cross-check the fast paths.

Everything here is deliberately naive: exhaustive descent over generator
removals, plain set intersections and a pairwise check of the family
axioms.  Tests compare these answers against the structural algorithms.
No hot path calls into this module.
"""

from itertools import combinations

from .core import (
    NumSG, DomainError, InvariantError, NATURALS, _require_in, _require_subset,
    contains, format_semigroup, genus, intersect, intersect_all, is_subset, msg,
    restricted_frobenius, union_with_tail,
)
from .chains import NoContainingElement, NotInVariety, chain_family
from .descriptors import Interval, Restricted, Generated


def _without(s: NumSG, x) -> NumSG:
    """s without its minimal generator x, its bit cleared in s's key, so no
    check shares the msg that core's removal may derive for the child."""
    return NumSG(s.key & ~(1 << x))


def enumerate_between(lo, hi: NumSG, genus_bound=None):
    """Every semigroup containing lo and contained in hi, as a set.

    lo is a NumSG or a plain collection of required elements.  Descends from
    hi by removing minimal generators outside lo; any intermediate semigroup
    is reachable this way because its generators cannot all lie in a smaller
    one.  Without a genus bound lo must be a NumSG, since the descent from a
    bare element set can be endless; DomainError is raised instead.
    """
    if isinstance(lo, NumSG):
        _require_subset(lo, hi)
        required = lambda x: contains(lo, x)
    else:
        req = frozenset(lo)
        _require_in(req, hi)
        required = req.__contains__
        if genus_bound is None:
            raise DomainError("unbounded descent from a bare element set")
    out = set()
    stack = [hi]
    seen = {hi}
    while stack:
        s = stack.pop()
        out.add(s)
        if genus_bound is not None and genus(s) >= genus_bound:
            continue
        for x in msg(s):
            if required(x):
                continue
            child = _without(s, x)
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return out


def smallest_containing(members, a) -> NumSG:
    """Intersection of the members containing every element of a."""
    hits = [m for m in members if all(contains(m, x) for x in a)]
    if not hits:
        raise NoContainingElement("no member contains {%s}"
                                  % ",".join(map(str, sorted(a))))
    out = intersect_all(hits)
    # the intersection of a finite intersection-closed family is a member,
    # but members here can be any list, so only minimality is guaranteed
    return out


def minimal_system_from_members(members, m: NumSG) -> frozenset:
    """Minimal generating system of member m relative to an explicit finite family.

    Greedy reduction of msg(m): drop x whenever the remaining set still pins
    m as the intersection of all containing members.  The outcome is the
    unique minimal system, so the scan order does not matter.  Tests check
    the closed forms of chains and engine.tree_of against it.
    """
    gaps = [(c, c.gaps) for c in members]

    def generated(b):
        need = sum(1 << x for x in b)
        parts = [c for c, g in gaps if not need & g]
        if not parts:
            raise NoContainingElement("no member contains %s" % sorted(b))
        return intersect_all(parts)

    keep = set(msg(m))
    if generated(keep) != m:
        raise NotInVariety("%s is not an intersection of the members"
                           % format_semigroup(m))
    for x in sorted(keep, reverse=True):
        trial = keep - {x}
        if generated(trial) == m:
            keep = trial
    return frozenset(keep)


def random_semigroup(rng, genus_max=10) -> NumSG:
    """Random semigroup grown by removing random generators from N."""
    return random_subsemigroup(rng, NATURALS, rng.randint(0, genus_max))


def random_subsemigroup(rng, t: NumSG, steps) -> NumSG:
    """Random semigroup inside t, reached in the given number of removals."""
    s = t
    for _ in range(steps):
        s = _without(s, rng.choice(msg(s)))
    return s


def random_interval(rng, genus_max=8) -> Restricted:
    hi = random_semigroup(rng, genus_max)
    lo = random_subsemigroup(rng, hi, rng.randint(0, 5))
    return Interval(lo, hi)


def random_restricted(rng, genus_max=8) -> Restricted:
    t = random_semigroup(rng, genus_max)
    pool = [x for x in msg(t) if x > 0]
    k = rng.randint(0, min(3, len(pool)))
    return Restricted(frozenset(rng.sample(pool, k)), t)


def oracle_members(desc, genus_bound):
    """Member set of a family by raw enumeration, cut at the genus bound.

    A restricted family descends from the maximum; a generated family is its
    chain family and its maximum, closed under pairwise intersection.
    """
    if isinstance(desc, Restricted):
        return {s for s in enumerate_between(desc.a, desc.t, genus_bound)
                if genus(s) <= genus_bound}
    if isinstance(desc, Generated):
        family = chain_family(desc.f, desc.delta) | {desc.delta}
        while True:
            grown = family | {intersect(a, b) for a in family for b in family}
            if grown == family:
                return {s for s in family if genus(s) <= genus_bound}
            family = grown
    raise TypeError("no oracle for %r" % (desc,))


def check_rvariety_axioms(members):
    """The three family axioms on an explicit finite member set, one NumSG
    operation per member or pair.

    No computation calls it: the tests check walks, views and restriction
    images with it.  Members are visited in the order of set(members).
    """
    members = set(members)
    if not members:
        raise InvariantError("empty family")
    # a maximum contains every other member, so it alone has the least genus
    top = min(members, key=genus)
    if not all(is_subset(s, top) for s in members):
        raise InvariantError("no maximum element")
    for a, b in combinations(members, 2):
        if intersect(a, b) not in members:
            raise InvariantError("intersection escapes: %s ∩ %s"
                                 % (format_semigroup(a), format_semigroup(b)))
    for s in members:
        if s != top:
            f = restricted_frobenius(s, top)
            if union_with_tail(s, top, f) not in members:
                raise InvariantError("adjoining %d to %s escapes"
                                     % (f, format_semigroup(s)))
