"""The bitset core against plain set-of-int arithmetic.

Every semigroup here is also built by brute force, as the Python set of its
members below a window W, with no help from rvar; each core operation must
agree with the matching set operation.  Generators stay at most 13, so every
conductor lies below 13 * 13 and every minimal generator below W / 2.
"""

from functools import reduce
from heapq import heappop, heappush
from itertools import combinations
from math import gcd

import pytest

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:
    pytest.skip("hypothesis not installed", allow_module_level=True)

from rvar import (
    NATURALS, AlreadyMember, NotClosed, Restricted, add_element, contains,
    elements, frobenius, from_generators, genus, genus_level, intersect,
    is_subset, msg, multiplicity, remove_element, restricted_frobenius,
    union_with_tail,
)
from rvar.core import NumSG, _drop, _intersect_each

W = 400
MAX_GEN = 12


# ------------------------------------------------------------- brute force

def closure(gens):
    """Members below W of the monoid generated by gens."""
    out = {0}
    for x in range(1, W):
        if any(g <= x and x - g in out for g in gens):
            out.add(x)
    return out


def conductor(s):
    c = W
    while c > 0 and c - 1 in s:
        c -= 1
    return c


def small(s):
    c = conductor(s)
    return tuple(sorted(x for x in s if x <= c))


def gaps(s):
    return [x for x in range(W) if x not in s]


def minimal_generators(s):
    nonzero = [x for x in s if x]
    return tuple(sorted(x for x in nonzero if x < W // 2
                        and not any(x - a in s for a in nonzero if 0 < x - a)))


def is_closed(s):
    c = conductor(s)
    below = [x for x in s if 0 < x < c]
    return all(a + b in s for a in below for b in below if a + b < c)


def apery_frobenius(gens):
    """The Frobenius number of <gens>, gcd 1, from its Apéry set for the
    least generator a: the least member in each residue class mod a, by
    shortest paths over the classes; the largest, less a."""
    a = min(gens)
    least = [0] + [None] * (a - 1)
    heap = [0]
    while heap:
        v = heappop(heap)
        if v > least[v % a]:
            continue
        for g in gens:
            w = v + g
            if least[w % a] is None or w < least[w % a]:
                least[w % a] = w
                heappush(heap, w)
    return max(least) - a


def brauer_bound(gens):
    """Brauer's (1942) bound on the Frobenius number of the increasing gens."""
    d, bound = gens[0], -gens[0]
    for a in gens[1:]:
        e = gcd(d, a)
        bound += a * (d // e - 1)
        d = e
    return bound


def erdos_graham_bound(gens):
    """Erdős and Graham's (1972) bound on the Frobenius number of the
    increasing gens: 2 a_(n-1) floor(a_n / n) - a_n."""
    return 2 * gens[-2] * (gens[-1] // len(gens)) - gens[-1]


def brute_key(s):
    return (len(gaps(s)), small(s))


def agrees(sg, s):
    """The NumSG sg and the brute-force member set s are the same semigroup."""
    return sg.conductor == conductor(s) and sg.small == small(s)


# ------------------------------------------------------------- strategies

def coprime(gens):
    """gens, with one generator added when their gcd is not 1."""
    if reduce(gcd, gens) != 1:
        gens = gens + [gens[0] + 1]
    return gens


GENS = st.lists(st.integers(2, MAX_GEN), min_size=1, max_size=4).map(coprime)
# longer lists of larger generators, increasing, for the sieve's bounds
WIDE_GENS = st.lists(st.integers(2, 150), min_size=2, max_size=9, unique=True).map(
    lambda g: sorted(coprime(sorted(g))))
# N itself is generated by 1
SOME_OR_N = st.one_of(st.just([1]), GENS)


@st.composite
def nested(draw):
    """(gens of s, gens of t) with s inside t: s is generated by members of t."""
    tg = draw(GENS)
    t = closure(tg)
    pool = sorted(x for x in t if 2 <= x <= MAX_GEN)
    sg = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    for g in sorted(tg):
        # the generators of t have gcd 1; add them until s's have too
        if reduce(gcd, sg) == 1:
            break
        sg = sg + [g]
    return sg, tg


class TestAgainstSets:
    @given(SOME_OR_N)
    def test_construction_and_invariants(self, gens):
        s, sg = closure(gens), from_generators(gens)
        assert agrees(sg, s)
        assert genus(sg) == len(gaps(s))
        assert multiplicity(sg) == min(x for x in s if x)
        assert msg(sg) == minimal_generators(s)
        # the accessors read the key alone, N and negative x included
        c = conductor(s)
        assert [contains(sg, x) for x in range(-2, c + 4)] == [
            x in s for x in range(-2, c + 4)]
        assert list(elements(sg, c + 3)) == [x for x in range(c + 4) if x in s]
        assert sg.gaps == sum(1 << x for x in gaps(s))
        assert frobenius(sg) == c - 1

    @given(GENS, GENS)
    def test_intersect_and_is_subset(self, ga, gb):
        a, b = closure(ga), closure(gb)
        sa, sb = from_generators(ga), from_generators(gb)
        assert agrees(intersect(sa, sb), a & b)
        assert is_subset(sa, sb) == (a <= b)
        assert is_subset(sb, sa) == (b <= a)

    @given(st.lists(SOME_OR_N, max_size=6), SOME_OR_N)
    def test_intersect_each_is_intersect_per_semigroup(self, gens_list, ugens):
        # the lists often hold N, and u is often N
        sgs = [from_generators(g) for g in gens_list]
        u = from_generators(ugens)
        assert _intersect_each(sgs, u) == {intersect(s, u) for s in sgs}

    @given(SOME_OR_N)
    def test_the_key_holds_the_members(self, gens):
        s, sg = closure(gens), from_generators(gens)
        k = sg.key
        assert k < 0
        assert [x for x in range(sg.conductor + 4) if k >> x & 1] == [
            x for x in range(sg.conductor + 4) if x in s]
        back = NumSG(k)
        assert back == sg and back.key == k and back.conductor == sg.conductor
        assert agrees(back, s) and msg(back) == msg(sg)

    @given(SOME_OR_N, SOME_OR_N)
    def test_the_key_of_an_intersection_is_the_and_of_keys(self, ga, gb):
        sa, sb = from_generators(ga), from_generators(gb)
        assert intersect(sa, sb).key == sa.key & sb.key

    @given(WIDE_GENS)
    def test_the_sieve_stays_within_both_bounds(self, gens):
        # the conductor, one past the Frobenius number from the Apéry set,
        # is at most each bound plus one, and the sieve sized by the
        # smaller finds it
        f = apery_frobenius(gens)
        assert f <= brauer_bound(gens) and f <= erdos_graham_bound(gens)
        assert from_generators(gens).conductor == f + 1

    @given(nested(), st.integers(0, W // 2))
    def test_union_with_tail(self, pair, n):
        s, t = closure(pair[0]), closure(pair[1])
        got = union_with_tail(from_generators(pair[0]), from_generators(pair[1]), n)
        assert agrees(got, s | {x for x in t if x >= n})

    @given(nested())
    def test_restricted_frobenius(self, pair):
        s, t = closure(pair[0]), closure(pair[1])
        if s != t:
            got = restricted_frobenius(from_generators(pair[0]), from_generators(pair[1]))
            assert got == max(t - s)

    @given(GENS, st.data())
    def test_remove_element(self, gens, data):
        s, sg = closure(gens), from_generators(gens)
        x = data.draw(st.sampled_from(minimal_generators(s)))
        assert agrees(remove_element(sg, x), s - {x})

    @given(GENS, st.data())
    def test_add_element(self, gens, data):
        s, sg = closure(gens), from_generators(gens)
        x = data.draw(st.integers(0, conductor(s)))
        if x in s:
            with pytest.raises(AlreadyMember):
                add_element(sg, x)
        elif is_closed(s | {x}):
            assert agrees(add_element(sg, x), s | {x})
        else:
            with pytest.raises(NotClosed):
                add_element(sg, x)

    @given(st.lists(GENS, min_size=2, max_size=6))
    def test_sort_key_orders_like_genus_then_small(self, gens_list):
        pairs = [(from_generators(g), closure(g)) for g in gens_list]
        by_key = [s for _, s in sorted(pairs, key=lambda p: p[0].sort_key())]
        by_brute = [s for _, s in sorted(pairs, key=lambda p: brute_key(p[1]))]
        assert by_key == by_brute


def semigroups_of_genus(g):
    """Every numerical semigroup of genus g, as member sets, by brute force.

    Its gaps lie in [1, 2g - 1], so try every g-subset of that range.
    """
    out = []
    for gap_set in combinations(range(1, 2 * g), g):
        s = set(range(W)) - set(gap_set)
        if is_closed(s):
            out.append(s)
    return out


def test_sort_key_orders_every_small_genus_like_genus_then_small():
    # equal genus is where the key's second part decides; A007323 up to genus 7
    counts, pairs = [], []
    for g in range(8):
        level = semigroups_of_genus(g)
        counts.append(len(level))
        pairs += [(from_generators(list(minimal_generators(s))), s) for s in level]
    assert counts == [1, 1, 2, 4, 7, 12, 23, 39]
    for sg, s in pairs:
        assert agrees(sg, s)
    by_key = [small(s) for _, s in sorted(pairs, key=lambda p: p[0].sort_key())]
    by_brute = [small(s) for _, s in sorted(pairs, key=lambda p: brute_key(p[1]))]
    assert by_key == by_brute


def test_add_and_remove_on_every_small_genus():
    for g in range(7):
        for s in semigroups_of_genus(g):
            sg = from_generators(list(minimal_generators(s)))
            for x in minimal_generators(s):
                assert agrees(remove_element(sg, x), s - {x})
            for x in gaps(s):
                if is_closed(s | {x}):
                    assert agrees(add_element(sg, x), s | {x})
                else:
                    with pytest.raises(NotClosed):
                        add_element(sg, x)


def semigroups_up_to_genus(g_max):
    """Every numerical semigroup of genus <= g_max, as member sets, by brute force.

    Every gap lies below 2 * g_max, so decide 1, 2, ..., 2 * g_max - 1 in
    turn: a sum of two members decided so far is a member, any other value
    is tried as a gap and as a member; every value past them is a member.
    """
    top = 2 * g_max
    out = []

    def grow(x, members, n_gaps):
        if x == top:
            out.append(members | set(range(top, W)))
            return
        if not any(x - a in members for a in members if 0 < a < x):
            if n_gaps < g_max:
                grow(x + 1, members, n_gaps + 1)
        grow(x + 1, members | {x}, n_gaps)

    grow(1, {0}, 0)
    return out


def _check_drop(s, gens, x):
    """Remove the minimal generator x of the semigroup s, whose minimal
    generators are gens, through _drop, with and without a known msg of the
    parent; return the case taken."""
    want = minimal_generators(s - {x})
    sg = from_generators(list(gens))
    fresh = NumSG(sg.key)
    lazy = _drop(fresh, x)
    assert fresh._msg is None and lazy._msg is None
    assert agrees(lazy, s - {x})
    msg(sg)
    child = _drop(sg, x)
    assert agrees(child, s - {x})
    if x < conductor(s):
        case = "below conductor"
    elif x == gens[0]:
        case = "multiplicity"
    else:
        case = "x+m new" if x + gens[0] in want else "x+m a sum"
    # msg is derived from the parent's exactly in the two x + m cases
    assert (child._msg is not None) == case.startswith("x+m")
    assert msg(child) == msg(NumSG(child.key)) == want
    return case


def test_derived_msg_of_every_child_up_to_genus_10():
    found = semigroups_up_to_genus(10)
    counts = [0] * 11
    cases = {}
    for s in found:
        counts[len(gaps(s))] += 1
        gens = minimal_generators(s)
        for x in gens:
            case = _check_drop(s, gens, x)
            cases[case] = cases.get(case, 0) + 1
    # A007323 up to genus 10
    assert counts == [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204]
    assert set(cases) == {"below conductor", "multiplicity", "x+m new", "x+m a sum"}
    # genus 0 is <1>, whose one child <2,3> is the multiplicity case
    assert msg(_drop(NATURALS, 1)) == (2, 3)


@given(GENS, st.data())
def test_derived_msg_of_a_random_child(gens, data):
    s = closure(gens)
    gens = minimal_generators(s)
    _check_drop(s, gens, data.draw(st.sampled_from(gens)))


def test_tree_levels_count_a007323_up_to_genus_14():
    n = Restricted(frozenset(), NATURALS)
    assert [len(genus_level(n, g)) for g in range(15)] == [
        1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693]
