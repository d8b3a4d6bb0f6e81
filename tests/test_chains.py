"""Chains between nested semigroups and the monoid machinery built on them."""

import re

import pytest

from rvar import (
    NATURALS, CapacityExceeded, Generated, Interval, NotContained, NotInDelta,
    NotInVariety, NotNumerical, Restricted, chain_family, chain_to, children,
    delta_of, descendants, genus, genus_level, is_member, is_pseudo_variety,
    is_subset, members_of, minimal_rsystem, minimal_system_from_members, msg,
    oracle_members, restricted_frobenius, rmonoid_generated, rrange, tree_of,
)
import rvar
from rvar import chains
from rvar.engine import RTreeNode, restriction_of
from support import (
    sg, DELTA_567, GENERATED_FIXTURE, GENERATED_MEMBERS, INTERVAL_FIXTURE,
    POOL, PSEUDO_FIXTURE, RESTRICTED_FIXTURE,
)


class TestChainTo:
    def test_interval_fixture_chain(self):
        rec = chain_to(sg(5, 6), DELTA_567)
        assert rec.links == (
            sg(5, 6),
            sg(5, 6, 19),
            sg(5, 6, 14),
            sg(5, 6, 13, 14),
            sg(5, 6, 7),
        )
        assert rec.fill_values == (19, 14, 13, 7)

    def test_each_fill_is_the_restricted_frobenius(self):
        rec = chain_to(sg(5, 6), DELTA_567)
        for prev, fill in zip(rec.links, rec.fill_values):
            assert restricted_frobenius(prev, DELTA_567) == fill

    def test_trivial_chain(self):
        rec = chain_to(DELTA_567, DELTA_567)
        assert rec.links == (DELTA_567,)
        assert rec.fill_values == ()

    def test_chains_past_the_bit_bound_are_refused_before_any_link(self, monkeypatch):
        # the bound is on links × conductor of s: five links of <5,6>, whose
        # conductor is 20, take up to 100 bits
        assert chains.MAX_CHAIN_BITS == 1 << 30
        monkeypatch.setattr(chains, "MAX_CHAIN_BITS", 100)
        assert len(chain_to(sg(5, 6), DELTA_567).links) == 5
        monkeypatch.setattr(chains, "MAX_CHAIN_BITS", 99)

        def built(*args):
            raise AssertionError("a link was built")
        monkeypatch.setattr(chains, "union_with_tail", built)
        with pytest.raises(CapacityExceeded, match=r"^chain of 5 links up to 20 bits "
                           r"wide exceeds 99 bits$"):
            chain_to(sg(5, 6), DELTA_567)
        monkeypatch.setattr(chains, "MAX_CHAIN_BITS", 1 << 30)
        # <216,217> in N: 23,221 links up to 46,440 bits, just past 2^30;
        # few links can be wide too: 20,000 links of about 4·10⁶ bits
        for s, t, links in ((sg(216, 217), NATURALS, 23221),
                            (sg(2, 3999999), sg(2, 3960001), 20000)):
            with pytest.raises(CapacityExceeded, match=r"^chain of %d links up to %d "
                               % (links, s.conductor)):
                chain_to(s, t)

    def test_requires_containment(self):
        with pytest.raises(NotContained):
            chain_to(sg(5, 7), sg(5, 6))

    def test_genus_drops_by_one_per_link(self):
        for start in PSEUDO_FIXTURE.f:
            rec = chain_to(start, PSEUDO_FIXTURE.delta)
            genera = [genus(s) for s in rec.links]
            assert genera == list(range(genera[0], genera[-1] - 1, -1))


class TestChainFamily:
    def test_generated_fixture_family(self):
        fam = chain_family(GENERATED_FIXTURE.f, GENERATED_FIXTURE.delta)
        expected = {
            sg(5, 7, 9, 11, 13),
            sg(5, 7, 8, 9, 11),
            sg(4, 10, 11, 13),
            sg(4, 9, 10, 11),
            sg(4, 7, 9, 10),
            sg(4, 5, 7),
        }
        assert fam == expected

    def test_family_contains_the_top(self):
        assert DELTA_567 in chain_family((sg(5, 6),), DELTA_567)

    def test_requires_containment(self):
        with pytest.raises(NotContained):
            chain_family((sg(5, 7),), sg(5, 6))


class TestIsMember:
    def test_all_generated_members(self):
        for m in GENERATED_MEMBERS:
            assert is_member(GENERATED_FIXTURE, m)

    def test_generated_non_member(self):
        # contained in the top but not an intersection of chain pieces
        assert is_subset(sg(5, 7), sg(4, 5, 7))
        assert not is_member(GENERATED_FIXTURE, sg(5, 7))

    def test_interval_membership(self):
        assert is_member(INTERVAL_FIXTURE, sg(5, 6, 14))
        assert is_member(INTERVAL_FIXTURE, sg(5, 6))
        assert is_member(INTERVAL_FIXTURE, DELTA_567)
        assert not is_member(INTERVAL_FIXTURE, sg(5, 6, 8))
        assert not is_member(INTERVAL_FIXTURE, NATURALS)

    def test_restricted_membership(self):
        assert is_member(RESTRICTED_FIXTURE, sg(4, 6, 7))
        assert is_member(RESTRICTED_FIXTURE, sg(4, 6, 13))
        assert not is_member(RESTRICTED_FIXTURE, sg(4, 7, 9, 10))
        assert not is_member(RESTRICTED_FIXTURE, sg(6, 7, 8, 9, 10, 11))



def _agrees_with_the_oracle(desc):
    """is_member(desc, s) is membership in the oracle family, over POOL."""
    family = oracle_members(desc, 7)
    return [s for s in POOL if is_member(desc, s) != (s in family)]


class TestMembershipKernel:
    # the membership test that each descriptor's kernel carries, on the
    # edge cases of its closed form, against the brute-force oracle
    def test_a_generated_family_without_f_is_its_maximum(self):
        for delta in (NATURALS, sg(2, 3), sg(3, 5, 7), DELTA_567):
            desc = Generated((), delta)
            assert _agrees_with_the_oracle(desc) == []
            assert [s for s in POOL if is_member(desc, s)] == [delta]
            assert minimal_rsystem(desc, delta) == frozenset()

    def test_conductors_past_every_link(self):
        # a member of Generated(f, Δ) with f nonempty lies in every link,
        # so its conductor is at most the largest conductor in f; the
        # probes past it, subsets of Δ among them, are all refused
        descs = [GENERATED_FIXTURE,
                 Generated((sg(3, 5), sg(4, 5, 7)), sg(3, 4, 5)),
                 Generated((sg(4, 5, 6), sg(3, 7)), sg(3, 4, 5)),
                 Generated((sg(2, 5),), NATURALS),
                 Generated((sg(2, 5), sg(3, 4)), NATURALS)]
        for desc in descs:
            top = max(c.conductor for c in desc.f)
            assert all(s.conductor <= top for s in oracle_members(desc, 7))
            past = [s for s in POOL if s.conductor > top]
            assert any(is_subset(s, delta_of(desc)) for s in past)
            assert [s for s in past if is_member(desc, s)] == []
            assert _agrees_with_the_oracle(desc) == []

    def test_forced_zero_and_forced_elements_past_the_conductor(self):
        # 0 is in every semigroup, and a forced element at or past the
        # conductor of s is in s, so neither is a gap of s
        descs = [Restricted({0}, NATURALS), Restricted({0, 4}, sg(2, 3)),
                 Restricted({3, 9, 12}, NATURALS), Restricted({0, 5, 8}, sg(3, 5, 7)),
                 Restricted({7, 8}, sg(2, 7))]
        for desc in descs:
            assert _agrees_with_the_oracle(desc) == []
        n = Restricted({0, 9, 12}, NATURALS)
        for s in (sg(3, 4, 5), sg(5, 6, 7, 8, 9), sg(9, 10, 11, 12, 13, 14, 15, 16, 17)):
            assert s.conductor <= 9 and is_member(n, s)
        assert not is_member(n, sg(5, 6, 7, 8))  # 9 is its Frobenius number
        assert is_member(Restricted({0}, NATURALS), sg(2, 3))

    def test_forced_elements_far_past_every_conductor(self):
        # forced elements are tested one by one, so their size costs
        # nothing; every semigroup holds 10**12, so this is N's family
        big = Restricted({10**12, 10**12 + 1}, NATURALS)
        whole = Restricted((), NATURALS)
        for s in (NATURALS, sg(2, 3), sg(5, 7, 9)):
            assert is_member(big, s)
            assert minimal_rsystem(big, s) == frozenset(msg(s))
        assert not is_member(Restricted({10**12}, sg(3, 4)), sg(2, 3))
        assert members_of(big, 7) == members_of(whole, 7)
        assert tree_of(big, 5)[0] == tree_of(whole, 5)[0]

    def test_a_non_descriptor_is_refused(self):
        # delta_of words the refusal, whichever entry point meets it first
        node = RTreeNode(NATURALS, -1, (1,))
        for desc in (None, (GENERATED_FIXTURE.f, GENERATED_FIXTURE.delta), NATURALS):
            refusal = r"^not a variety descriptor: %s$" % re.escape(repr(desc))
            for call in (lambda: is_member(desc, NATURALS),
                         lambda: minimal_rsystem(desc, NATURALS),
                         lambda: rrange(desc, NATURALS),
                         lambda: rmonoid_generated(desc, {1}),
                         lambda: descendants(desc, NATURALS),
                         lambda: children(desc, node),
                         lambda: members_of(desc, 3),
                         lambda: tree_of(desc, 3),
                         lambda: genus_level(desc, 3),
                         lambda: restriction_of(desc, NATURALS, 3),
                         lambda: is_pseudo_variety(desc)):
                with pytest.raises(TypeError, match=refusal):
                    call()

    def test_walked_members_bypass_the_kernel(self, monkeypatch):
        # once a walk is kept, its members' membership and systems are read
        # off it, for a family and for a view cut from its walk: neither the
        # kind's membership test nor its system function runs
        calls = []
        for kind in (Restricted, Generated):
            member, system = vars(kind)["member"], vars(kind)["system"]

            def counted_system(desc, system=system):
                plain = system.__get__(desc, type(desc))
                return lambda m: calls.append(("system", m)) or plain(m)
            monkeypatch.setattr(kind, "member", lambda desc, s, member=member:
                                calls.append(("member", s)) or member(desc, s))
            monkeypatch.setattr(kind, "system", property(counted_system))
        for desc in (Restricted({4, 6}, sg(4, 6, 7)), Interval(sg(5, 6), DELTA_567),
                     Generated(GENERATED_FIXTURE.f, GENERATED_FIXTURE.delta)):
            mem = members_of(desc, 10)[0]
            view = descendants(desc, mem[1])
            for d in (desc, view):
                calls.clear()
                _, walked, _, systems, _, _, _, _ = d._walked
                for m, system in zip(walked, systems):
                    assert is_member(d, m)
                    assert minimal_rsystem(d, m) == frozenset(system)
                assert calls == []
            # the guard sees a lookup that misses the walk
            assert not is_member(desc, NATURALS)
            assert calls == [("member", NATURALS)]

    def test_the_member_map_follows_the_kept_walk(self, monkeypatch):
        desc = Restricted({4, 6}, sg(4, 6, 7))
        # no walk, no map; a walk builds none, the first lookup fills the
        # one that the walk carries, keyed by each member's key
        assert is_member(desc, sg(4, 6, 7)) and desc._walked is None
        members_of(desc, 8)
        held = desc._walked[6]
        assert held == {}
        assert minimal_rsystem(desc, sg(4, 6, 7)) == frozenset({7})
        assert desc._walked[6] is held
        assert held == {m.key: i for i, m in enumerate(desc._walked[1])}
        # a walk at the same bound keeps it, and a refused walk too
        members_of(desc, 8)
        monkeypatch.setattr(rvar.engine, "MAX_MEMBERS", 10)
        with pytest.raises(CapacityExceeded):
            members_of(desc, 12)
        assert desc._walked[6] is held
        monkeypatch.undo()
        # a walk at another bound brings a new empty map, and the next
        # lookup fills it from that walk
        members_of(desc, 7)
        assert desc._walked[6] == {}
        assert is_member(desc, sg(4, 6, 7))
        assert desc._walked[6] == {m.key: i for i, m in enumerate(desc._walked[1])}
        assert len(desc._walked[6]) < len(held)


class TestRMonoidGenerated:
    def test_generated_anchors(self):
        assert rmonoid_generated(GENERATED_FIXTURE, {4, 5, 7}) == sg(4, 5, 7)
        assert rmonoid_generated(
            GENERATED_FIXTURE, {5, 7, 8, 9, 11}) == sg(5, 7, 8, 9, 11)

    def test_msg_of_top_regenerates_top(self):
        for desc in (INTERVAL_FIXTURE, RESTRICTED_FIXTURE, GENERATED_FIXTURE):
            top = delta_of(desc)
            assert rmonoid_generated(desc, set(msg(top))) == top

    def test_interval_anchors(self):
        assert rmonoid_generated(INTERVAL_FIXTURE, {13}) == sg(5, 6, 13)
        assert rmonoid_generated(INTERVAL_FIXTURE, {14}) == sg(5, 6, 14)
        assert rmonoid_generated(INTERVAL_FIXTURE, set()) == sg(5, 6)

    def test_restricted_anchor(self):
        assert rmonoid_generated(RESTRICTED_FIXTURE, {13}) == sg(4, 6, 13)

    def test_rejects_elements_outside_top(self):
        with pytest.raises(NotInDelta):
            rmonoid_generated(INTERVAL_FIXTURE, {8})
        with pytest.raises(NotInDelta, match="^-1 is not in <5,6,7>$"):
            rmonoid_generated(INTERVAL_FIXTURE, {-1})

    def test_rejects_non_numerical_result(self):
        # every member of this family keeps gcd 2 unless 4 brings company
        with pytest.raises(NotNumerical):
            rmonoid_generated(Restricted(frozenset(), sg(2, 3)), {4})


class TestMinimalRSystem:
    def test_generated_anchors(self):
        assert minimal_rsystem(GENERATED_FIXTURE, sg(4, 5, 7)) == frozenset({4, 5})
        assert minimal_rsystem(GENERATED_FIXTURE, sg(4, 7, 9, 10)) == frozenset({4, 7})

    def test_interval_anchor(self):
        assert minimal_rsystem(
            INTERVAL_FIXTURE, sg(5, 6, 13, 14)) == frozenset({13, 14})

    def test_restricted_anchor(self):
        assert minimal_rsystem(
            RESTRICTED_FIXTURE, sg(4, 6, 11, 13)) == frozenset({11, 13})

    def test_rejects_non_member(self):
        with pytest.raises(NotInVariety):
            minimal_rsystem(GENERATED_FIXTURE, sg(5, 7))

    def test_public_system_is_a_frozenset_and_the_walks_increases(self):
        # in the pseudo fixture several family members give one element
        descs = (INTERVAL_FIXTURE, RESTRICTED_FIXTURE, GENERATED_FIXTURE,
                 PSEUDO_FIXTURE, Restricted(frozenset(), NATURALS))
        for desc in descs:
            for m in members_of(desc, 10)[0]:
                system = list(desc.system(m))
                assert system == sorted(set(system))
                public = minimal_rsystem(desc, m)
                assert type(public) is frozenset
                assert public == set(system)

    def test_an_unforced_family_takes_msg_as_its_system(self):
        # a walk of N's tree calls msg itself per member, nothing around it;
        # with forced elements the system is msg without them
        for t in (NATURALS, sg(2, 3), DELTA_567, sg(4, 6, 7)):
            assert Restricted(frozenset(), t).system is msg
        for desc in (RESTRICTED_FIXTURE, INTERVAL_FIXTURE, Restricted({3}, NATURALS)):
            members = [m for m in POOL if desc.member(m)]
            assert len(members) > 1
            for m in members:
                assert desc.system(m) == tuple(x for x in msg(m) if x not in desc.a)

    def test_generated_fixture_needs_at_most_two(self):
        for m in GENERATED_MEMBERS:
            assert rrange(GENERATED_FIXTURE, m) <= 2

    def test_rrange_anchor(self):
        assert rrange(GENERATED_FIXTURE, sg(4, 5, 7)) == 2
        assert rrange(INTERVAL_FIXTURE, sg(5, 6, 13, 14)) == 2
        assert rrange(INTERVAL_FIXTURE, sg(5, 6)) == 0


class TestMinimalSystemFromMembers:
    def test_explicit_family_anchors(self):
        members = list(PSEUDO_FIXTURE.f)
        assert minimal_system_from_members(
            members, sg(5, 6, 13, 14)) == frozenset({13, 14})
        assert minimal_system_from_members(members, sg(5, 6)) == frozenset()

    def test_agrees_with_minimal_rsystem(self):
        members = list(GENERATED_MEMBERS)
        for m in members:
            assert (minimal_system_from_members(members, m)
                    == minimal_rsystem(GENERATED_FIXTURE, m))
