"""Law-level checks on randomly generated semigroups and families.

Each test states an identity that must hold for every input; hypothesis
hunts for counterexamples.  Anchored values live in the other modules.
"""

import pickle
import random
from functools import reduce
from math import gcd

import pytest

try:
    from hypothesis import assume, example, given, settings
    from hypothesis import strategies as st
except ImportError:
    pytest.skip("hypothesis not installed", allow_module_level=True)

from rvar import (
    LD, PL, DomainError, EmptyGenerators, GcdNotOne, Generated, Interval, NATURALS,
    NotClosed, NotInVariety, NumSG, Restricted, add_element, build_tree, chain_family, chain_to,
    check_rvariety_axioms, contains, delta_of, descendants, elements,
    enumerate_between, format_semigroup, from_generators, frobenius, genus,
    genus_level, intersect, intersect_all, is_member, is_pseudo_variety,
    is_subset, member, members_of, minimal_rsystem, multiplicity,
    minimal_system_from_members, minimal_vsystem, msg, oracle_members,
    parse_semigroup, random_semigroup, random_subsemigroup, remove_element,
    restrict_variety, restricted_closure, restricted_frobenius,
    rmonoid_generated, smallest_containing, tree_of, tree_vertices, union_with_tail,
    variety_closure,
)
from rvar.engine import _last_level, restriction_of
from support import sg, FINITE_FIXTURES, GENERATED_FIXTURE, INTERVAL_FIXTURE, POOL


@st.composite
def semigroups(draw, max_gen=24):
    gens = draw(st.lists(st.integers(min_value=2, max_value=max_gen),
                         min_size=1, max_size=4))
    assume(reduce(gcd, gens) == 1)
    return from_generators(gens)


@st.composite
def nested_pairs(draw, max_steps=4):
    t = draw(semigroups())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    s = random_subsemigroup(rng, t, draw(st.integers(1, max_steps)))
    return s, t


@st.composite
def restricteds(draw):
    t = draw(semigroups(max_gen=14))
    picks = draw(st.lists(st.sampled_from(sorted(msg(t))), max_size=2))
    return Restricted(frozenset(picks), t)


@st.composite
def generated_descriptors(draw):
    delta = draw(semigroups(max_gen=10))
    assume(genus(delta) <= 6)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    count = draw(st.integers(1, 2))
    fam = tuple(random_subsemigroup(rng, delta, rng.randint(0, 3))
                for _ in range(count))
    return Generated(fam, delta)


@st.composite
def finite_families(draw):
    """(desc, bound): an interval or a Generated family and a genus bound
    that its walk reaches in full."""
    kind = draw(st.sampled_from([Interval, Generated]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    t = random_semigroup(rng, 8)
    lo = random_subsemigroup(rng, t, rng.randint(1, 6))
    if kind is Interval:
        # every member contains lo, the semigroup its forced elements generate
        return Interval(lo, t), genus(lo)
    fam = tuple(random_subsemigroup(rng, t, rng.randint(0, 5))
                for _ in range(rng.randint(1, 3)))
    return Generated(fam, t), 40


@st.composite
def framed_generators(draw):
    """One or two generators in 2..12, all drawn from the members of t."""
    t = draw(semigroups(max_gen=12))
    pool = [x for x in elements(t, 12) if x >= 2]
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
    return gens, t


KIND = st.sampled_from([LD, PL])


class TestCoreLaws:
    @given(semigroups())
    def test_msg_regenerates(self, s):
        assert from_generators(list(msg(s))) == s

    @given(semigroups())
    def test_msg_is_irredundant(self, s):
        gens = list(msg(s))
        if len(gens) < 2:
            return
        for x in gens:
            rest = [g for g in gens if g != x]
            try:
                assert from_generators(rest) != s
            except GcdNotOne:
                pass

    @given(semigroups())
    def test_genus_counts_the_gaps(self, s):
        naive = sum(1 for x in range(s.conductor) if not contains(s, x))
        assert genus(s) == naive

    @given(semigroups())
    def test_frobenius_is_the_last_gap(self, s):
        f = frobenius(s)
        assert f == s.conductor - 1
        if s != NATURALS:
            assert not contains(s, f)
            assert all(contains(s, f + k) for k in range(1, 5))

    @given(semigroups())
    def test_remove_then_add_round_trips(self, s):
        for x in msg(s):
            smaller = remove_element(s, x)
            assert genus(smaller) == genus(s) + 1
            assert add_element(smaller, x) == s

    @given(semigroups(), semigroups())
    def test_intersect_is_the_pointwise_and(self, a, b):
        both = intersect(a, b)
        assert both == intersect(b, a)
        assert is_subset(both, a) and is_subset(both, b)
        top = max(a.conductor, b.conductor) + 2
        for x in range(top):
            assert contains(both, x) == (contains(a, x) and contains(b, x))

    @given(semigroups())
    def test_intersect_is_idempotent(self, s):
        assert intersect(s, s) == s
        assert intersect_all([s, NATURALS]) == s

    @given(nested_pairs())
    def test_restricted_frobenius_matches_naive_scan(self, pair):
        s, t = pair
        naive = max(y for y in elements(t, s.conductor + 1)
                    if not contains(s, y))
        assert restricted_frobenius(s, t) == naive

    @given(nested_pairs())
    def test_adjoining_the_restricted_frobenius_adds_one_element(self, pair):
        s, t = pair
        f = restricted_frobenius(s, t)
        parent = union_with_tail(s, t, f)
        assert genus(parent) == genus(s) - 1
        assert contains(parent, f)
        assert is_subset(s, parent) and is_subset(parent, t)
        assert parent == add_element(s, f)

    @given(semigroups())
    def test_parse_format_round_trip(self, s):
        assert parse_semigroup(format_semigroup(s)) == s


class TestChainLaws:
    @given(nested_pairs())
    def test_chain_invariants(self, pair):
        s, t = pair
        rec = chain_to(s, t)
        assert rec.links[0] == s and rec.links[-1] == t
        assert list(rec.fill_values) == sorted(rec.fill_values, reverse=True)
        for i, fill in enumerate(rec.fill_values):
            assert fill == restricted_frobenius(rec.links[i], t)
            assert rec.links[i + 1] == union_with_tail(rec.links[i], t, fill)
            assert genus(rec.links[i + 1]) == genus(rec.links[i]) - 1

    @given(nested_pairs())
    def test_chain_members_lie_between_the_ends(self, pair):
        s, t = pair
        for link in chain_to(s, t).links:
            assert is_subset(s, link) and is_subset(link, t)


class TestRMonoidLaws:
    @given(nested_pairs())
    @settings(max_examples=60)
    def test_member_fixpoint(self, pair):
        lo, hi = pair
        desc = Interval(lo, hi)
        for m in enumerate_between(lo, hi):
            system = minimal_rsystem(desc, m)
            assert rmonoid_generated(desc, system) == m

    @given(restricteds(), st.integers(0, 2 ** 32))
    @settings(max_examples=60)
    def test_restricted_member_fixpoint(self, desc, seed):
        rng = random.Random(seed)
        mem, _ = members_of(desc, genus(desc.t) + 2)
        m = rng.choice(mem)
        assert rmonoid_generated(desc, minimal_rsystem(desc, m)) == m

    @given(nested_pairs(), st.integers(0, 2 ** 32))
    @settings(max_examples=60)
    def test_generation_is_monotone(self, pair, seed):
        lo, hi = pair
        desc = Interval(lo, hi)
        rng = random.Random(seed)
        pool = [x for x in elements(hi, hi.conductor + 3) if x]
        big = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
        small = big[: rng.randint(0, len(big))]
        assert is_subset(rmonoid_generated(desc, small),
                         rmonoid_generated(desc, big))

    @given(generated_descriptors())
    @settings(max_examples=40)
    def test_generated_family_is_the_intersection_closure(self, desc):
        fam = sorted(chain_family(desc.f, desc.delta),
                     key=lambda s: s.sort_key())
        closure = set()
        for mask in range(1, 1 << len(fam)):
            closure.add(intersect_all(
                [fam[i] for i in range(len(fam)) if mask >> i & 1]))
        bound = max(genus(s) for s in closure)
        mem, complete = members_of(desc, bound)
        assert complete
        assert set(mem) == closure
        for m in closure:
            assert is_member(desc, m)

    @given(generated_descriptors(), st.integers(0, 2 ** 32))
    @settings(max_examples=40)
    def test_generated_membership_localizes(self, desc, seed):
        # a probe is a member exactly when the chain links containing it
        # intersect to it; the probes are links, their intersections, random
        # subsemigroups of the maximum and random semigroups that may lie
        # outside it, for f and for f = ()
        rng = random.Random(seed)
        for d in (desc, Generated((), desc.delta)):
            links = sorted(chain_family(d.f, d.delta) | {d.delta},
                           key=NumSG.sort_key)
            probes = (links + [intersect(rng.choice(links), rng.choice(links))
                               for _ in range(3)]
                      + [random_subsemigroup(rng, d.delta, rng.randint(0, 4))
                         for _ in range(3)]
                      + [random_semigroup(rng, 6) for _ in range(2)])
            for s in probes:
                containing = [c for c in links if is_subset(s, c)]
                expected = bool(containing) and intersect_all(containing) == s
                assert is_member(d, s) == expected


@st.composite
def monoid_cases(draw):
    """(desc, a, bound): a family, a set a of elements of its maximum, and
    a genus bound that the oracle walks to hold the least member containing
    a.  A Generated family, sometimes with f = (), is finite, and a may be
    empty, hold 0 or reach past the largest conductor in f.  A Restricted
    family forces elements of msg(s) for a semigroup s inside its maximum,
    and a holds the rest of msg(s), so gcd(forced ∪ a) = 1 and the answer
    is s, of bounded genus; 0 and larger elements of s ride along."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    delta = random_semigroup(rng, 6)
    if draw(st.booleans()):
        desc = Generated([random_subsemigroup(rng, delta, rng.randint(0, 4))
                          for _ in range(rng.randint(0, 3))], delta)
        top = max([c.conductor for c in desc.f], default=delta.conductor)
        pool = list(elements(delta, top + 2))
        a = rng.sample(pool, rng.randint(0, min(4, len(pool))))
        return desc, a, genus(intersect_all(list(desc.f) + [delta]))
    steps = rng.randint(0, 3)
    s = random_subsemigroup(rng, delta, steps)
    gens = msg(s)
    forced = rng.sample(gens, rng.randint(0, len(gens)))
    extra = list(elements(s, s.conductor + 2))
    a = ([x for x in gens if x not in forced]
         + rng.sample(extra, rng.randint(0, min(3, len(extra)))))
    return Restricted(forced, delta), a, genus(delta) + steps


class TestRMonoidOracle:
    # the kernel's monoid against the intersection of the oracle's members
    # that contain a; a Generated family is walked to the genus of its least
    # member, the intersection of its maximum and of f
    @given(monoid_cases())
    @settings(max_examples=150)
    def test_the_monoid_is_the_least_containing_member(self, case):
        desc, a, bound = case
        expected = smallest_containing(oracle_members(desc, bound), a)
        assert rmonoid_generated(desc, a) == expected


def naive_closure(off, gens, window):
    """Nonzero members below window of the closure of gens, by fixpoint.

    Every a + b and a + b + off exceeds a and b, so the members below the
    window depend only on members below it.
    """
    got = {g for g in gens if g < window}
    while True:
        new = {s for a in got for b in got if a <= b
               for s in (a + b, a + b + off) if s < window} - got
        if not new:
            return got
        got |= new


def naive_vsystem(off, m):
    """The members x <= conductor + multiplicity of m that are no a + b or
    a + b + off of nonzero members a, b < x, by a pair scan."""
    nonzero = [x for x in elements(m, m.conductor + multiplicity(m)) if x]
    sums = {s for a in nonzero for b in nonzero if a <= b
            for s in (a + b, a + b + off) if b < s}
    return {x for x in nonzero if x not in sums}


def naive_refusal(off, m):
    """The NotClosed line for m, or None if m is closed: the least a + b + off
    outside m over nonzero members a, b, split as b + x at the largest minimal
    generator x not above its member partner b.  Past the conductor every
    sum stays inside."""
    nonzero = [x for x in elements(m, m.conductor) if x]
    escapes = [a + b + off for a in nonzero for b in nonzero
               if not contains(m, a + b + off)]
    if not escapes:
        return None
    v = min(escapes)
    x = max(x for x in msg(m) if x <= v - off - x and contains(m, v - off - x))
    return "%d + %d %s 1 = %d escapes %s" % (
        v - off - x, x, "-" if off < 0 else "+", v, format_semigroup(m))


class TestClosureLaws:
    @given(KIND, st.lists(st.integers(2, 12), min_size=1, max_size=3))
    def test_closure_is_the_least_closed_set(self, kind, gens):
        # closures of generators up to 12 settle below 264, so the
        # reference's window shows a run of min(gens) members at its top
        window = 300
        off = -1 if kind == LD else 1
        ref = naive_closure(off, gens, window)
        assert set(range(window - min(gens), window)) <= ref
        v = variety_closure(kind, gens)
        assert v.conductor <= window
        assert set(elements(v, window - 1)) == ref | {0}
        assert variety_closure(kind, minimal_vsystem(kind, v)) == v

    @given(KIND, st.lists(st.integers(2, 15), min_size=1, max_size=3))
    def test_extensive_and_idempotent(self, kind, gens):
        v = variety_closure(kind, gens)
        for g in gens:
            assert contains(v, g)
        assert variety_closure(kind, list(msg(v))) == v

    @given(KIND, st.lists(st.integers(2, 15), min_size=1, max_size=3),
           st.integers(2, 15))
    def test_monotone(self, kind, gens, extra):
        assert is_subset(variety_closure(kind, gens),
                         variety_closure(kind, gens + [extra]))

    @given(KIND, st.lists(st.integers(2, 15), min_size=1, max_size=3))
    def test_result_is_kind_closed(self, kind, gens):
        off = -1 if kind == LD else 1
        v = variety_closure(kind, gens)
        probe = list(elements(v, v.conductor + 3))
        for a in probe:
            for b in probe:
                if a and b:
                    assert contains(v, a + b + off)

    @given(KIND, st.lists(st.integers(2, 15), min_size=1, max_size=3))
    def test_minimal_system_regenerates_and_is_minimal(self, kind, gens):
        v = variety_closure(kind, gens)
        system = minimal_vsystem(kind, v)
        assert system <= set(msg(v))
        assert variety_closure(kind, sorted(system)) == v
        for x in system:
            rest = sorted(system - {x})
            try:
                assert variety_closure(kind, rest) != v
            except EmptyGenerators:
                pass

    @given(KIND, st.lists(st.integers(1, 10), min_size=1, max_size=3))
    @example(LD, [1])
    @example(PL, [1])
    def test_minimal_system_is_its_definition(self, kind, gens):
        v = variety_closure(kind, gens)
        assert minimal_vsystem(kind, v) == naive_vsystem(-1 if kind == LD else 1, v)

    @given(KIND, semigroups(max_gen=16))
    def test_not_closed_exactly_on_an_escape(self, kind, s):
        # closedness is decided from the pairs of minimal generators alone,
        # and a refusal names the least escaping sum
        line = naive_refusal(-1 if kind == LD else 1, s)
        if line is None:
            assert variety_closure(kind, msg(s)) == s
            minimal_vsystem(kind, s)
            return
        with pytest.raises(NotClosed) as caught:
            minimal_vsystem(kind, s)
        assert str(caught.value) == line

    @pytest.mark.parametrize("kind", [LD, PL])
    def test_every_refusal_in_the_pool_names_the_least_sum(self, kind):
        off = -1 if kind == LD else 1
        for s in POOL:
            try:
                minimal_vsystem(kind, s)
                got = None
            except NotClosed as e:
                got = str(e)
            assert got == naive_refusal(off, s), format_semigroup(s)

    @given(KIND, framed_generators())
    def test_restricted_closure_is_the_framed_intersection(self, kind, framed):
        gens, t = framed
        rc = restricted_closure(kind, gens, t)
        assert rc == intersect(variety_closure(kind, gens), t)
        assert is_subset(rc, t)
        for g in gens:
            assert contains(rc, g)


class TestEngineLaws:
    @given(nested_pairs())
    @settings(max_examples=60)
    def test_interval_walk_matches_the_oracle(self, pair):
        # the oracle tests containment of lo itself, not of msg(lo)
        lo, hi = pair
        desc = Interval(lo, hi)
        mem, complete = members_of(desc, genus(lo))
        assert complete
        assert len(mem) == len(set(mem))
        assert set(mem) == enumerate_between(lo, hi)
        for s in mem:
            assert member(desc, s)
        check_rvariety_axioms(mem)

    @given(restricteds())
    @settings(max_examples=40)
    def test_restricted_walk_matches_the_oracle(self, desc):
        bound = genus(desc.t) + 3
        mem, _ = members_of(desc, bound)
        assert set(mem) == oracle_members(desc, bound)

    @given(nested_pairs())
    @settings(max_examples=60)
    def test_parents_adjoin_the_restricted_frobenius(self, pair):
        lo, delta = pair
        desc = Interval(lo, delta)
        stack = [build_tree(desc, genus(lo))]
        while stack:
            node = stack.pop()
            frobs = [c.restricted_frob for c in node.children]
            assert frobs == sorted(set(frobs))
            for c in node.children:
                assert union_with_tail(c.sg, delta, c.restricted_frob) == node.sg
                assert restricted_frobenius(c.sg, delta) == c.restricted_frob
                stack.append(c)

    @given(nested_pairs())
    @settings(max_examples=40)
    def test_levels_partition_the_walk(self, pair):
        lo, hi = pair
        desc = Interval(lo, hi)
        mem, _ = members_of(desc, genus(lo))
        by_genus = {}
        for s in mem:
            by_genus.setdefault(genus(s), set()).add(s)
        for g, expected in by_genus.items():
            assert genus_level(desc, g) == expected

    @given(semigroups(max_gen=14), st.integers(0, 2 ** 32),
           st.integers(1, 3))
    @settings(max_examples=80)
    def test_intersection_takes_the_largest_restricted_frobenius(
            self, delta, seed, count):
        rng = random.Random(seed)
        subs = [random_subsemigroup(rng, delta, rng.randint(1, 4))
                for _ in range(count)]
        crossing = intersect_all(subs)
        assert restricted_frobenius(crossing, delta) == \
            max(restricted_frobenius(s, delta) for s in subs)


def _pseudo_by_rule(members, top):
    """The defining rule: every member S other than top has F(S) in top."""
    return all(contains(top, frobenius(s)) for s in members if s != top)


class TestPseudoVarietyLaws:
    # is_pseudo_variety reads its answer off the maximum's tree node; the
    # rule over walked members, which it replaces, is the reference here
    @given(finite_families(), st.integers(0, 2 ** 32))
    @settings(max_examples=80)
    def test_finite_families_and_views_follow_the_rule(self, family, seed):
        desc, bound = family
        mem, complete = members_of(desc, bound)
        assert complete
        top = random.Random(seed).choice(mem)
        view = descendants(desc, top)
        view_mem, view_complete = members_of(view, bound)
        assert view_complete
        assert is_pseudo_variety(desc) == _pseudo_by_rule(mem, delta_of(desc))
        assert is_pseudo_variety(view) == _pseudo_by_rule(view_mem, top)

    @given(restricteds())
    @settings(max_examples=60)
    def test_infinite_families_follow_the_rule_four_genera_down(self, desc):
        # by the proof a counterexample, when there is one, is a child of
        # the maximum; the walk looks three genera further down
        mem, _ = members_of(desc, genus(desc.t) + 4)
        assert is_pseudo_variety(desc) == _pseudo_by_rule(mem, desc.t)


def _descends(s, top, delta):
    """Whether adjoining restricted Frobenius numbers in delta leads s to top."""
    while genus(s) > genus(top):
        s = union_with_tail(s, delta, restricted_frobenius(s, delta))
    return s == top


class TestRestrictionLaws:
    # restriction_of returns its image unchecked; the proof in its
    # docstring is held here against the oracle and the axiom check
    @given(finite_families(), st.integers(0, 2 ** 32))
    @settings(max_examples=100)
    def test_complete_image_is_the_restricted_oracle_family(self, family, seed):
        desc, bound = family
        rng = random.Random(seed)
        u = random_semigroup(rng, 10)
        base = sorted(oracle_members(desc, bound), key=NumSG.sort_key)
        top = rng.choice(base)
        delta = delta_of(desc)
        view = [s for s in base if _descends(s, top, delta)]
        for d, mem in ((desc, base), (descendants(desc, top), view)):
            image, complete = restriction_of(d, u, bound)
            assert complete
            assert image == {intersect(s, u) for s in mem}
            check_rvariety_axioms(image)

    @given(generated_descriptors(), st.integers(0, 2 ** 32))
    @settings(max_examples=100)
    def test_restriction_commutes_with_generation(self, desc, seed):
        # {S ∩ u : S a member of Generated(f, Δ)} is the member set of
        # Generated([c ∩ u for c in f], Δ ∩ u); the README gives the proof
        u = random_semigroup(random.Random(seed), 10)
        image, complete = restriction_of(desc, u, 40)
        traced = Generated([intersect(c, u) for c in desc.f], intersect(desc.delta, u))
        mem, traced_complete = members_of(traced, 40)
        assume(complete and traced_complete)
        assert image == set(mem)


@st.composite
def view_cases(draw):
    """(desc, t, bound): an Interval, Restricted or Generated family, the
    last sometimes with f = (), a member t of it found by the oracle within
    two genera of the maximum, and a genus bound up to two past t's genus."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    delta = random_semigroup(rng, 6)
    kind = draw(st.sampled_from([Interval, Restricted, Generated]))
    if kind is Interval:
        desc = Interval(random_subsemigroup(rng, delta, rng.randint(0, 5)), delta)
    elif kind is Restricted:
        pool = [x for x in msg(delta) if x > 1]
        desc = Restricted(rng.sample(pool, rng.randint(0, min(2, len(pool)))), delta)
    else:
        desc = Generated([random_subsemigroup(rng, delta, rng.randint(0, 4))
                          for _ in range(rng.randint(0, 3))], delta)
    pool = sorted(oracle_members(desc, genus(delta) + 2), key=NumSG.sort_key)
    t = rng.choice(pool)
    return desc, t, genus(t) + rng.randint(0, 2)


class TestViewConversionLaws:
    # descendants() writes the view of t as a Restricted or Generated family
    # with maximum t; the reference follows parents up to t in the base
    # family's oracle, so it does not go through the conversion.  The
    # reference goes one genus past the bound, so it holds m without x for
    # every x in the system of a walked member m.
    @given(view_cases())
    @settings(max_examples=100)
    def test_a_view_is_the_family_below_its_top(self, case):
        desc, t, bound = case
        delta = delta_of(desc)
        ref = {s for s in oracle_members(desc, bound + 1) if _descends(s, t, delta)}
        view = descendants(desc, t)
        assert type(view) in (Restricted, Generated) and delta_of(view) == t
        assert oracle_members(view, bound + 1) == ref
        shown = {s for s in ref if genus(s) <= bound}
        nodes = tree_vertices(build_tree(view, bound))
        assert len(nodes) == len(shown) and {n.sg for n in nodes} == shown
        for n in nodes:
            assert n.restricted_frob == (-1 if n.sg == t else restricted_frobenius(n.sg, t))
            assert n.min_system == tuple(sorted(minimal_system_from_members(ref, n.sg)))

    @given(view_cases(), st.integers(0, 2 ** 32))
    @settings(max_examples=60)
    def test_nested_views_are_direct_views(self, case, seed):
        desc, t, bound = case
        view = descendants(desc, t)
        inner = random.Random(seed).choice(members_of(view, bound)[0])
        assert members_of(descendants(view, inner), bound) == \
            members_of(descendants(desc, inner), bound)

    @given(view_cases())
    @settings(max_examples=40)
    def test_the_view_of_the_maximum_is_the_family(self, case):
        desc, _, _ = case
        top = delta_of(desc)
        view = descendants(desc, top)
        assert members_of(view, genus(top) + 2) == members_of(
            pickle.loads(pickle.dumps(desc)), genus(top) + 2)


@st.composite
def cut_cases(draw):
    """(desc, bounds, seed): an Interval, Restricted or Generated family,
    the last sometimes with f = (), and the genus bounds at which its walk
    is cut off or first complete, in that order, the first when it has
    members past its maximum's genus and the second when it is finite."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    delta = random_semigroup(rng, 6)
    kind = draw(st.sampled_from([Interval, Restricted, Generated]))
    if kind is Interval:
        desc = Interval(random_subsemigroup(rng, delta, rng.randint(0, 5)), delta)
    elif kind is Restricted:
        pool = [x for x in msg(delta) if x > 1]
        desc = Restricted(rng.sample(pool, rng.randint(0, min(2, len(pool)))), delta)
    else:
        desc = Generated([random_subsemigroup(rng, delta, rng.randint(0, 4))
                          for _ in range(rng.randint(0, 3))], delta)
    top = genus(delta)
    bounds = []
    for bound in range(top, top + 7):
        if members_of(pickle.loads(pickle.dumps(desc)), bound)[1]:
            if bound > top:
                bounds.append(rng.randrange(top, bound))
            bounds.append(bound)
            break
    else:
        bounds.append(top + rng.randint(0, 2))
    return desc, bounds, rng.randrange(2 ** 32)


def _fresh_walk(desc, bound):
    """The walk that an equal descriptor with no kept walk keeps at bound."""
    copy = pickle.loads(pickle.dumps(desc))
    members_of(copy, bound)
    return copy._walked


def _width_rule_holds(walked):
    """Whether each member's conductor in a kept walk is that of its first
    member or its fd plus one, whichever is larger: a member is its
    maximum without values at most its fd, itself a gap."""
    _, mem, fds = walked[:3]
    return all(s.conductor == max(mem[0].conductor, fd + 1)
               for s, fd in zip(mem, fds))


class TestViewCutLaws:
    # a view of a member of a kept walk is born with its subtree cut from
    # that walk; an equal view rebuilt by pickle keeps none, so its own walk
    # is the reference for the bound, members, fds, systems, child counts
    # and the complete flag.  The member map, which lookups fill, is left
    # out, and a cut is born with an empty one of its own.  Fresh and cut
    # walks alike keep each member's conductor at its maximum's or past its fd
    @given(cut_cases())
    @settings(max_examples=80)
    def test_a_cut_walk_is_the_fresh_walk_of_the_view(self, case):
        desc, bounds, seed = case
        rng = random.Random(seed)
        for bound in bounds:
            members_of(desc, bound)
            mem = desc._walked[1]
            assert _width_rule_holds(desc._walked)
            for t in mem:
                view = descendants(desc, t)
                assert view is desc or view._walked[6] == {}
                assert view._walked[:6] == _fresh_walk(view, bound)[:6]
                assert _width_rule_holds(view._walked)
                inner = rng.choice(view._walked[1])
                nested = descendants(view, inner)
                assert nested is view or nested._walked[6] == {}
                assert nested._walked[:6] == _fresh_walk(nested, bound)[:6]
                assert _width_rule_holds(nested._walked)
                assert members_of(nested, bound) == members_of(
                    descendants(desc, inner), bound)
            # a member past the bound is not in the walk, so its view keeps none
            past = [s for s in members_of(pickle.loads(pickle.dumps(desc)), bound + 1)[0]
                    if genus(s) > bound]
            for t in past:
                assert descendants(desc, t)._walked is None
            assert desc._walked[1] is mem


class TestKeptSystemLaws:
    # once a walk is kept, membership and systems of its members are read
    # off it; an equal descriptor rebuilt by pickle keeps no walk, so its
    # kernel is the reference.  Views are cut from the kept walk, and each
    # walk replaces the one before it.
    @given(cut_cases())
    @settings(max_examples=60)
    def test_lookups_agree_with_a_fresh_kernel(self, case):
        desc, bounds, seed = case
        rng = random.Random(seed)
        for bound in (*bounds, bounds[0] + 1, bounds[0]):
            mem = members_of(desc, bound)[0]
            for d in (desc, descendants(desc, rng.choice(mem))):
                fresh = pickle.loads(pickle.dumps(d))
                walked = d._walked[1]
                for m in walked:
                    assert is_member(d, m) and is_member(fresh, m)
                    assert minimal_rsystem(d, m) == minimal_rsystem(fresh, m)
                # the map holds the current walk, not one before it
                assert d._walked[6] == {m.key: i for i, m in enumerate(walked)}
                for s in POOL:
                    if is_member(fresh, s):
                        assert is_member(d, s)
                        assert minimal_rsystem(d, s) == minimal_rsystem(fresh, s)
                        continue
                    assert not is_member(d, s)
                    with pytest.raises(NotInVariety, match=r" is not a member$"):
                        minimal_rsystem(d, s)
                assert fresh._walked is None


@st.composite
def walked_families(draw):
    """(desc, bound): a finite family walked in full, or a restricted family,
    possibly infinite, walked two genera below its maximum."""
    if draw(st.booleans()):
        return draw(finite_families())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    t = random_semigroup(rng, 7)
    pool = [x for x in msg(t) if x > 1]
    forced = rng.sample(pool, rng.randint(0, min(2, len(pool))))
    return Restricted(frozenset(forced), t), genus(t) + 2


@st.composite
def walk_cases(draw):
    """(desc, bound): a Restricted or Generated family, the tree of all
    semigroups, or a descendants view of one, and a genus bound from one
    below its maximum's genus to four past it, so walks are refused, cut
    off or complete."""
    desc = draw(st.one_of(restricteds(), generated_descriptors(),
                          st.just(Restricted(frozenset(), NATURALS))))
    if draw(st.booleans()):
        below = tree_vertices(build_tree(desc, genus(delta_of(desc)) + 1))
        desc = descendants(desc, draw(st.sampled_from(below)).sg)
    return desc, genus(delta_of(desc)) + draw(st.integers(-1, 4))


def _breadth_first(root):
    """The nodes of a tree level by level, each node's children in order."""
    nodes = [root]
    for n in nodes:  # the list grows as each node appends its children
        nodes.extend(n.children)
    return nodes


class TestLevelLoopLaws:
    # members_of and _last_level walk (member, fd, system) levels and build
    # no tree nodes; the node walk of tree_of is the reference
    @given(walk_cases())
    @settings(max_examples=150)
    def test_members_are_the_tree_nodes_in_walk_order(self, case):
        desc, bound = case
        if bound < genus(delta_of(desc)):
            for walk in (members_of, tree_of):
                with pytest.raises(DomainError, match=r"^genus bound %d is below" % bound):
                    walk(desc, bound)
            assert _last_level(desc, bound) == []
            return
        root, complete = tree_of(desc, bound)
        nodes = _breadth_first(root)
        assert members_of(desc, bound) == ([n.sg for n in nodes], complete)
        last = [n for n in nodes if genus(n.sg) == bound]
        assert _last_level(desc, bound) == [
            (n.sg, n.restricted_frob, n.min_system) for n in last]

    def test_the_examples_repeat_from_run_to_run(self):
        assert settings.default.derandomize
        assert settings.default.deadline is None


class TestMemberMemoLaws:
    # a descriptor keeps its last member walk; an equal descriptor rebuilt by
    # pickle keeps none, so its walk is the reference.  Each bound comes
    # twice, so the kept walk answers, is replaced, or outlives a refusal.
    @given(walk_cases(), st.lists(st.integers(-1, 4), min_size=1, max_size=3))
    @settings(max_examples=100)
    def test_a_kept_walk_is_a_fresh_walk(self, case, steps):
        desc, _ = case
        top = genus(delta_of(desc))
        for bound in [top + step for step in steps for _ in range(2)]:
            if bound < top:
                with pytest.raises(DomainError, match=r"^genus bound %d is below the "
                                   r"genus %d of the maximum$" % (bound, top)):
                    members_of(desc, bound)
                continue
            mem, complete = members_of(pickle.loads(pickle.dumps(desc)), bound)
            assert members_of(desc, bound) == (mem, complete)
            # every member lies in the maximum, so restricting by it keeps them
            assert restriction_of(desc, delta_of(desc), bound) == (set(mem), complete)


class TestKernelLaws:
    # a walk takes each node's system from its family's bit-op kernel; the
    # brute-force minimal system over the oracle family is the reference.
    # The oracle family goes one genus past the walk, so it holds m without
    # x for every x in the system of a walked member m.
    @given(walked_families(), st.integers(0, 2 ** 32))
    @settings(max_examples=100)
    def test_node_systems_match_the_oracle(self, family, seed):
        desc, bound = family
        base = oracle_members(desc, bound + 1)
        delta = delta_of(desc)
        top = random.Random(seed).choice(members_of(desc, bound)[0])
        view = [s for s in base if _descends(s, top, delta)]
        for d, mem in ((desc, base), (descendants(desc, top), view)):
            for n in tree_vertices(build_tree(d, bound)):
                assert n.min_system == tuple(sorted(
                    minimal_system_from_members(mem, n.sg)))

    @given(nested_pairs())
    @settings(max_examples=60)
    def test_interval_systems_are_the_generators_in_the_gaps_of_lo(self, pair):
        # Interval(lo, hi) is Restricted(msg(lo), hi), whose kernel drops the
        # forced generators; a minimal generator of a member m that lies in lo
        # is no sum of nonzero elements of lo ⊆ m, so it is one of msg(lo)
        lo, hi = pair
        for n in tree_vertices(build_tree(Interval(lo, hi), genus(lo))):
            assert n.min_system == tuple(x for x in msg(n.sg) if lo.gaps >> x & 1)


# every semigroup of genus <= 5, 27 in all
SMALL_SEMIGROUPS = sorted(enumerate_between(frozenset(), NATURALS, 5),
                          key=NumSG.sort_key)

# families that pass the check: the fixtures and some of their restrictions
AXIOM_FAMILIES = [tuple(members) for _, members in FINITE_FIXTURES] + [
    tuple(sorted(restrict_variety(desc, u), key=NumSG.sort_key))
    for desc, u in [(INTERVAL_FIXTURE, sg(5, 7, 9)),
                    (GENERATED_FIXTURE, sg(4, 6, 7)),
                    (GENERATED_FIXTURE, sg(3, 5, 7)),
                    (Interval(sg(7, 8), sg(7, 8, 9, 10)), sg(5, 7, 8))]]


class TestAxiomCheckLaws:
    def test_every_family_of_the_pool_passes(self):
        assert len(SMALL_SEMIGROUPS) == 27
        for family in AXIOM_FAMILIES:
            check_rvariety_axioms(family)
