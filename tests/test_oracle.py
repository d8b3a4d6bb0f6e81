"""The brute-force references, checked against anchors and the fast paths."""

import random

import pytest

from rvar import (
    NATURALS, DomainError, Generated, Interval, InvariantError, NoContainingElement,
    NotContained, NotInVariety, Restricted, check_rvariety_axioms, descendants,
    enumerate_between, genus, genus_level, members_of, minimal_system_from_members,
    oracle_members, random_interval, random_restricted, random_semigroup,
    random_subsemigroup, smallest_containing,
)
from support import (
    sg, DELTA_567, GENERATED_FIXTURE, GENERATED_MEMBERS, INTERVAL_FIXTURE,
    INTERVAL_MEMBERS, RESTRICTED_FIXTURE,
)


class TestEnumerateBetween:
    def test_equal_endpoints(self):
        assert enumerate_between(sg(5, 6), sg(5, 6)) == {sg(5, 6)}

    def test_interval_fixture(self):
        got = enumerate_between(sg(5, 6), DELTA_567)
        assert got == set(INTERVAL_MEMBERS)

    def test_bare_element_set(self):
        got = enumerate_between({4, 6}, sg(4, 6, 7), 7)
        assert got == {sg(4, 6, 7), sg(4, 6, 11, 13),
                       sg(4, 6, 13, 15), sg(4, 6, 11)}

    def test_genus_counts_below_naturals(self):
        # 1 + 1 + 2 + 4 + 7 + 12 semigroups of genus 0..5
        got = enumerate_between(set(), NATURALS, 5)
        assert len(got) == 27
        by_genus = {}
        for s in got:
            by_genus[genus(s)] = by_genus.get(genus(s), 0) + 1
        assert [by_genus[g] for g in range(6)] == [1, 1, 2, 4, 7, 12]

    def test_requires_containment(self):
        with pytest.raises(NotContained):
            enumerate_between(sg(5, 7), sg(5, 6))
        with pytest.raises(NotContained, match=r"^5 is not in <4,6,7>$"):
            enumerate_between({5}, sg(4, 6, 7), 8)

    def test_bare_element_set_needs_a_bound(self):
        # {4, 6} inside <4,6,7> has members of every genus; without a bound
        # the descent would never end, so it is refused before it starts
        with pytest.raises(DomainError):
            enumerate_between({4, 6}, sg(4, 6, 7))


class TestSmallestContaining:
    def test_anchor(self):
        got = smallest_containing(GENERATED_MEMBERS, {4, 7})
        assert got == sg(4, 7, 9, 10)

    def test_empty_requirement_gives_the_minimum(self):
        got = smallest_containing(GENERATED_MEMBERS, set())
        assert got == sg(10, 11, 12, 13, 14, 15, 16, 17, 18, 19)

    def test_no_member_contains(self):
        with pytest.raises(NoContainingElement):
            smallest_containing(GENERATED_MEMBERS, {6})


class TestReferenceRefusals:
    def test_a_minimal_system_needs_a_member_that_holds_the_generators(self):
        with pytest.raises(NoContainingElement, match=r"^no member contains \[2, 3\]$"):
            minimal_system_from_members([sg(5, 6, 7)], sg(2, 3))

    def test_a_minimal_system_needs_an_intersection_of_members(self):
        # <2,3> holds 2 and 5, the generators of <2,5>, but is not <2,5>
        with pytest.raises(NotInVariety,
                           match="^<2,5> is not an intersection of the members$"):
            minimal_system_from_members([sg(2, 3)], sg(2, 5))

    def test_the_axioms_refuse_an_empty_family(self):
        with pytest.raises(InvariantError, match="^empty family$"):
            check_rvariety_axioms([])


class TestRandomHelpers:
    def test_seeded_runs_repeat(self):
        a = random.Random(7)
        b = random.Random(7)
        for _ in range(10):
            assert random_semigroup(a) == random_semigroup(b)
            assert random_interval(a) == random_interval(b)
            assert random_restricted(a) == random_restricted(b)

    def test_subsemigroup_steps_show_in_the_genus(self):
        rng = random.Random(3)
        t = sg(4, 6, 7)
        s = random_subsemigroup(rng, t, 3)
        assert genus(s) == genus(t) + 3

    def test_shapes(self):
        rng = random.Random(11)
        assert isinstance(random_interval(rng), Restricted)
        assert isinstance(random_restricted(rng), Restricted)


class TestOracleAgainstEngine:
    def test_interval_fixture(self):
        mem, complete = members_of(INTERVAL_FIXTURE, 12)
        assert complete
        assert set(mem) == oracle_members(INTERVAL_FIXTURE, 12)

    def test_restricted_fixture_at_a_cutoff(self):
        bound = 9
        mem, complete = members_of(RESTRICTED_FIXTURE, bound)
        assert not complete
        assert set(mem) == oracle_members(RESTRICTED_FIXTURE, bound)

    def test_restricted_family_below_the_genus_of_its_maximum(self):
        # no member has genus <= bound, as the walk refuses such a bound;
        # the interval is the same family and gets the same answer
        desc = Restricted({5, 6}, DELTA_567)
        assert genus(DELTA_567) == 6
        assert oracle_members(desc, 2) == set()
        assert oracle_members(Interval(sg(5, 6), DELTA_567), 2) == set()
        assert oracle_members(desc, 6) == {DELTA_567}
        with pytest.raises(DomainError):
            members_of(desc, 2)

    def test_levels_match_the_oracle(self):
        raw = oracle_members(RESTRICTED_FIXTURE, 8)
        for g in range(5, 9):
            assert genus_level(RESTRICTED_FIXTURE, g) == \
                {s for s in raw if genus(s) == g}

    def test_generated_fixture(self):
        assert oracle_members(GENERATED_FIXTURE, 20) == set(GENERATED_MEMBERS)

    def test_generated_fixture_at_a_cutoff(self):
        # the fixture's members have genus 5..10
        assert oracle_members(GENERATED_FIXTURE, 7) == \
            {s for s in GENERATED_MEMBERS if genus(s) <= 7}
        assert oracle_members(GENERATED_FIXTURE, 7) == \
            set(members_of(GENERATED_FIXTURE, 7)[0])

    def test_generated_family_without_generators_is_its_maximum(self):
        # Δ is the last link of every chain, so with no chains to take it
        # from the oracle must still hold it
        delta = sg(3, 8, 13)
        desc = Generated((), delta)
        assert oracle_members(desc, genus(delta)) == {delta}
        assert members_of(desc, genus(delta) + 3) == ([delta], True)

    def test_the_oracle_takes_a_view(self):
        # a descendants view is a Restricted or Generated descriptor, so the
        # oracle enumerates it like any other family
        view = descendants(INTERVAL_FIXTURE, sg(5, 6, 13, 14))
        assert oracle_members(view, 10) == {
            sg(5, 6, 13, 14), sg(5, 6, 14), sg(5, 6, 13), sg(5, 6, 19), sg(5, 6)}
        view = descendants(GENERATED_FIXTURE, sg(4, 7, 9, 10))
        assert oracle_members(view, 20) == {
            sg(4, 7, 9, 10), sg(4, 9, 10, 11), sg(4, 10, 11, 13)}
        with pytest.raises(TypeError):
            oracle_members((INTERVAL_FIXTURE, sg(5, 6, 13, 14)), 10)
