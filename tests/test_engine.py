"""Family trees, genus levels, classification, and derived views."""

import os
import pickle
import subprocess
import sys

import pytest

import rvar
from rvar import chains
from rvar import (
    NATURALS, CapacityExceeded, DomainError, Generated, Interval,
    NotInVariety, Restricted, build_tree, check_rvariety_axioms, children,
    delta_of, descendants, genus, genus_level, is_pseudo_variety, member,
    is_member, members_of, minimal_rsystem, minimal_system_from_members, msg,
    from_generators, remove_element, restrict_variety, tree_of, tree_vertices,
    union_with_tail,
)
from rvar.descriptors import _Record
from rvar.engine import RTreeNode, _last_level, _walk, fdelta, restriction_of
from support import (
    sg, DELTA_567, FINITE_FIXTURES, GENERATED_FIXTURE, GENERATED_MEMBERS,
    INTERVAL_FIXTURE, INTERVAL_MEMBERS, PSEUDO_FIXTURE, RESTRICTED_FIXTURE,
    count_systems,
)


class TestMember:
    def test_base_dispatch(self):
        assert member(INTERVAL_FIXTURE, sg(5, 6, 13))
        assert not member(INTERVAL_FIXTURE, sg(5, 6, 8))
        assert member(RESTRICTED_FIXTURE, sg(4, 6, 13))
        assert member(GENERATED_FIXTURE, sg(4, 9, 10, 11))

    def test_member_is_the_membership_test_of_chains(self):
        # a descendants view is a Restricted or Generated descriptor, so
        # there is no other kind of family to dispatch on
        assert member is is_member is chains.is_member
        assert rvar.member is rvar.engine.member is chains.is_member
        with pytest.raises(AttributeError, match="has no attribute 'members'"):
            rvar.engine.members

    def test_descendants_view(self):
        view = descendants(INTERVAL_FIXTURE, sg(5, 6, 13, 14))
        assert member(view, sg(5, 6, 13, 14))
        assert member(view, sg(5, 6, 19))
        assert member(view, sg(5, 6))
        # member of the base family but not below the view's root
        assert member(INTERVAL_FIXTURE, DELTA_567)
        assert not member(view, DELTA_567)
        # not a member of the base family at all
        assert not member(view, sg(5, 6, 9, 13))
        assert not member(view, sg(5, 6, 8))

    def test_sibling_subtree_is_excluded(self):
        view = descendants(INTERVAL_FIXTURE, sg(5, 6, 14))
        assert member(view, sg(5, 6, 19))
        assert member(view, sg(5, 6))
        assert not member(view, sg(5, 6, 13))


class TestBuildTree:
    def test_interval_fixture_shape(self):
        root = build_tree(INTERVAL_FIXTURE)
        assert root.sg == DELTA_567
        assert root.restricted_frob == -1
        assert root.min_system == (7,)
        (n7,) = root.children
        assert n7.sg == sg(5, 6, 13, 14)
        assert n7.restricted_frob == 7
        assert n7.min_system == (13, 14)
        a, b = n7.children
        assert (a.sg, a.restricted_frob) == (sg(5, 6, 14), 13)
        assert (b.sg, b.restricted_frob) == (sg(5, 6, 13), 14)
        assert b.children == []
        (c,) = a.children
        assert (c.sg, c.restricted_frob) == (sg(5, 6, 19), 14)
        (d,) = c.children
        assert (d.sg, d.restricted_frob) == (sg(5, 6), 19)
        assert d.min_system == ()
        assert d.children == []

    def test_bound_equal_to_root_genus_gives_single_node(self):
        root = build_tree(INTERVAL_FIXTURE, genus_bound=genus(DELTA_567))
        assert root.children == []
        mem, complete = members_of(INTERVAL_FIXTURE, genus_bound=genus(DELTA_567))
        assert mem == [DELTA_567]
        assert not complete

    def test_walk_returns_one_node_per_member(self):
        # bench/tracer.py counts len(_walk(...)[0]) as the walk's rows
        nodes, complete = out = _walk(Restricted(frozenset(), NATURALS), 3)
        assert type(out) is tuple
        assert len(nodes) == 1 + 1 + 2 + 4  # A007323 up to genus 3
        assert all(type(n) is RTreeNode for n in nodes)
        assert complete is False

    def test_bound_below_root_genus_rejected(self):
        with pytest.raises(DomainError):
            build_tree(INTERVAL_FIXTURE, genus_bound=genus(DELTA_567) - 1)

    def test_children_sorted_by_restricted_frob(self):
        for desc, _ in FINITE_FIXTURES:
            for node in tree_vertices(build_tree(desc)):
                fds = [c.restricted_frob for c in node.children]
                assert fds == sorted(fds)

    def test_each_member_appears_once(self):
        for desc, expected in FINITE_FIXTURES:
            mem, complete = members_of(desc)
            assert complete
            assert len(mem) == len(set(mem))
            assert set(mem) == set(expected)

    def test_parent_adjoins_the_childs_restricted_frob(self):
        for desc, _ in FINITE_FIXTURES:
            delta = delta_of(desc)
            stack = [build_tree(desc)]
            while stack:
                node = stack.pop()
                for c in node.children:
                    grown = union_with_tail(c.sg, delta, c.restricted_frob)
                    assert grown == node.sg
                    stack.append(c)

    def test_a_deep_tree_has_equality_and_repr(self):
        # the family from <2,1201> up to N is one path of 600 levels, past
        # the recursion limit of a node-by-node comparison or repr
        def deep():
            return build_tree(Interval(from_generators([2, 1201]), NATURALS), 600)
        tree, other = deep(), deep()
        assert len(tree_vertices(tree)) == 601
        assert tree == other and not tree != other
        last = tree_vertices(other)[-1]
        last.min_system += (1201,)
        assert tree != other
        last.min_system = last.min_system[:-1]
        last.children.append(RTreeNode(NATURALS, 0, ()))
        assert tree != other
        # the same answers and text as the forms that recurse per level
        text = repr(tree)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            assert text == _Record.__repr__(tree)
            assert _Record.__eq__(tree, deep()) and not _Record.__eq__(tree, other)
        finally:
            sys.setrecursionlimit(limit)

    def test_trees_compare_and_print_as_records_of_their_fields(self):
        for desc, _ in FINITE_FIXTURES:
            tree = build_tree(desc)
            for other in (build_tree(desc), tree_vertices(build_tree(desc))[-1],
                          RTreeNode(tree.sg, tree.restricted_frob, tree.min_system)):
                assert (tree == other) is _Record.__eq__(tree, other)
            assert repr(tree) == _Record.__repr__(tree)
            assert tree.__eq__(tree.sg) is NotImplemented


def cross_checked_children(desc, node):
    """children(desc, node), re-derived the slow way as well: the minimal
    generators above node's bound whose removal stays in the family."""
    got = children(desc, node)
    alt = [remove_element(node.sg, x)
           for x in sorted(msg(node.sg))
           if x > node.restricted_frob and member(desc, remove_element(node.sg, x))]
    assert [c.sg for c in got] == alt
    return got


class TestChildren:
    def test_cross_check_on_every_fixture_node(self):
        for desc, _ in FINITE_FIXTURES:
            for node in tree_vertices(build_tree(desc)):
                got = cross_checked_children(desc, node)
                assert [c.sg for c in got] == [c.sg for c in node.children]

    def test_view_children_match_the_view_tree(self):
        # below <3,5,7> the base systems of the full tree hold 3, which the
        # view forces; children() must drop it just as tree_of() does
        view = descendants(Restricted(frozenset(), NATURALS), sg(3, 5, 7))
        root, _ = tree_of(view, genus_bound=6)
        for node in tree_vertices(root):
            if genus(node.sg) < 6:
                got = [(c.sg, c.restricted_frob, c.min_system)
                       for c in children(view, node)]
                assert got == [(c.sg, c.restricted_frob, c.min_system)
                               for c in node.children]

    def test_min_systems_are_increasing_tuples_in_base_families_and_views(self):
        for desc, members in FINITE_FIXTURES:
            for d in [desc] + [descendants(desc, top) for top in members]:
                for node in tree_vertices(build_tree(d)):
                    for n in [node] + children(d, node):
                        assert type(n.min_system) is tuple
                        assert all(a < b for a, b in zip(n.min_system, n.min_system[1:]))

    def test_generated_anchor(self):
        root = build_tree(GENERATED_FIXTURE)
        (node,) = [n for n in tree_vertices(root) if n.sg == sg(4, 7, 9, 10)]
        got = cross_checked_children(GENERATED_FIXTURE, node)
        assert [c.sg for c in got] == [sg(4, 9, 10, 11)]
        assert got[0].restricted_frob == 7

    def test_cross_check_on_view_nodes(self):
        view = descendants(INTERVAL_FIXTURE, sg(5, 6, 13, 14))
        for node in tree_vertices(build_tree(view)):
            cross_checked_children(view, node)


class TestGenusLevel:
    def test_restricted_fixture_levels(self):
        t = RESTRICTED_FIXTURE
        assert genus_level(t, 4) == set()
        assert genus_level(t, 5) == {sg(4, 6, 7)}
        assert genus_level(t, 6) == {sg(4, 6, 11, 13)}
        assert genus_level(t, 7) == {sg(4, 6, 13, 15), sg(4, 6, 11)}
        assert genus_level(t, 8) == {sg(4, 6, 15, 17), sg(4, 6, 13)}

    def test_interval_fixture_levels(self):
        t = INTERVAL_FIXTURE
        assert genus_level(t, 6) == {DELTA_567}
        assert genus_level(t, 8) == {sg(5, 6, 14), sg(5, 6, 13)}
        assert genus_level(t, 10) == {sg(5, 6)}
        assert genus_level(t, 11) == set()
        assert genus_level(t, 99) == set()

    def test_levels_partition_the_members(self):
        for desc, _ in FINITE_FIXTURES:
            mem, complete = members_of(desc)
            assert complete
            by_genus = {}
            for s in mem:
                by_genus.setdefault(genus(s), set()).add(s)
            for g, expected in by_genus.items():
                assert genus_level(desc, g) == expected

    def test_level_pairs_carry_each_members_fdelta(self):
        # the CLI's structured genus-level reads fdelta and the system off
        # these (member, fd, system) triples
        for desc in (RESTRICTED_FIXTURE, GENERATED_FIXTURE, INTERVAL_FIXTURE,
                     Restricted(frozenset(), NATURALS)):
            top = delta_of(desc)
            for g in range(genus(top), genus(top) + 7):
                level = _last_level(desc, g)
                assert len({s for s, _, _ in level}) == len(level)
                assert {s for s, _, _ in level} == genus_level(desc, g)
                assert [x for _, x, _ in level] == [fdelta(s, top) for s, _, _ in level]
                assert [xs for _, _, xs in level] == [
                    tuple(sorted(minimal_rsystem(desc, s))) for s, _, _ in level]


class TestIsPseudoVariety:
    def test_counterexample_in_the_interval_fixture(self):
        # <5,6,13,14> has Frobenius number 9, which the maximum misses
        assert is_pseudo_variety(INTERVAL_FIXTURE) is False

    def test_explicit_family_is_pseudo(self):
        assert is_pseudo_variety(PSEUDO_FIXTURE) is True

    def test_naturals_top_is_trivially_pseudo(self):
        assert is_pseudo_variety(Restricted(frozenset({2}), NATURALS)) is True

    def test_infinite_family_is_decided_at_no_bound(self):
        # every child of <2,3> drops a value past its Frobenius number 1;
        # <3,5,7> has the child <5,6,7,8,9> of Frobenius number 4
        assert is_pseudo_variety(Restricted(frozenset(), sg(2, 3))) is True
        assert is_pseudo_variety(Restricted(frozenset(), sg(3, 5, 7))) is False


class TestDescendants:
    def test_view_members(self):
        view = descendants(INTERVAL_FIXTURE, sg(5, 6, 13, 14))
        mem, complete = members_of(view)
        assert complete
        assert set(mem) == {sg(5, 6, 13, 14), sg(5, 6, 14), sg(5, 6, 13),
                            sg(5, 6, 19), sg(5, 6)}

    def test_view_tree_reuses_base_structure(self):
        view = descendants(INTERVAL_FIXTURE, sg(5, 6, 13, 14))
        root = build_tree(view)
        assert root.sg == sg(5, 6, 13, 14)
        assert root.restricted_frob == -1
        assert root.min_system == (13, 14)
        assert {c.sg for c in root.children} == {sg(5, 6, 14), sg(5, 6, 13)}
        fds = {n.sg: n.restricted_frob for n in tree_vertices(root)}
        assert fds[sg(5, 6, 14)] == 13
        assert fds[sg(5, 6, 13)] == 14
        assert fds[sg(5, 6, 19)] == 14
        assert fds[sg(5, 6)] == 19

    def test_whole_family_view(self):
        view = descendants(INTERVAL_FIXTURE, DELTA_567)
        mem, complete = members_of(view)
        assert complete
        assert set(mem) == set(INTERVAL_MEMBERS)

    def test_leaf_view(self):
        view = descendants(INTERVAL_FIXTURE, sg(5, 6, 13))
        mem, complete = members_of(view)
        assert complete
        assert mem == [sg(5, 6, 13)]

    def test_rejects_non_member(self):
        with pytest.raises(NotInVariety):
            descendants(INTERVAL_FIXTURE, sg(5, 6, 9, 13))

    def test_view_satisfies_the_axioms(self):
        view = descendants(GENERATED_FIXTURE, sg(4, 9, 10, 11))
        mem, complete = members_of(view)
        assert complete
        check_rvariety_axioms(mem)

    def test_nesting_flattens_to_the_base(self):
        # a view is a family of the base kind, so a view of a view is one
        # too, with the members of the direct view
        view = descendants(INTERVAL_FIXTURE, sg(5, 6, 13, 14))
        inner = descendants(view, sg(5, 6, 14))
        assert type(view) is type(inner) is Restricted
        assert inner == descendants(INTERVAL_FIXTURE, sg(5, 6, 14))
        assert delta_of(inner) == sg(5, 6, 14)
        assert set(members_of(inner)[0]) == {sg(5, 6, 14), sg(5, 6, 19), sg(5, 6)}
        outer = descendants(GENERATED_FIXTURE, sg(4, 7, 9, 10))
        assert type(outer) is Generated
        assert members_of(descendants(outer, sg(4, 9, 10, 11))) == \
            members_of(descendants(GENERATED_FIXTURE, sg(4, 9, 10, 11)))

    def test_the_maximum_gives_the_family_itself(self):
        for desc, _ in FINITE_FIXTURES:
            assert descendants(desc, delta_of(desc)) is desc

    def test_truncated_view_has_exact_min_systems(self):
        view = descendants(RESTRICTED_FIXTURE, sg(4, 6, 11, 13))
        root = build_tree(view, genus_bound=8)
        mem, complete = members_of(view, genus_bound=8)
        assert not complete
        got = {n.sg: n.min_system for n in tree_vertices(root)}
        assert got == {sg(4, 6, 11, 13): (11, 13),
                       sg(4, 6, 13, 15): (13, 15),
                       sg(4, 6, 15, 17): (15, 17),
                       sg(4, 6, 13): (13,),
                       sg(4, 6, 11): (11,)}
        assert root.restricted_frob == -1

    def test_view_systems_match_the_oracle(self):
        for desc, members in FINITE_FIXTURES:
            for top in members:
                full = tree_vertices(build_tree(descendants(desc, top)))
                mem = [n.sg for n in full]
                for n in full:
                    assert frozenset(n.min_system) == minimal_system_from_members(mem, n.sg)

    def test_cut_view_shows_the_systems_of_the_complete_walk(self):
        view = descendants(INTERVAL_FIXTURE, sg(5, 6, 13, 14))
        full = tree_vertices(build_tree(view))
        cut, complete = tree_of(view, genus_bound=genus(sg(5, 6, 13, 14)) + 1)
        assert not complete
        systems = {n.sg: n.min_system for n in full}
        shown = tree_vertices(cut)
        assert len(shown) == 3
        for n in shown:
            assert n.min_system == systems[n.sg]


class TestWalkKernel:
    def test_the_kernel_is_chosen_once_per_walk(self, monkeypatch):
        # a walk takes its family's system function once, not once per node
        views = [descendants(INTERVAL_FIXTURE, sg(5, 6, 13, 14)),
                 descendants(RESTRICTED_FIXTURE, sg(4, 6, 11, 13))]
        calls = []
        count_systems(monkeypatch, calls)
        for desc in [INTERVAL_FIXTURE, RESTRICTED_FIXTURE, GENERATED_FIXTURE,
                     Restricted(frozenset(), NATURALS)] + views:
            g = genus(delta_of(desc)) + 4
            for walk in (members_of, tree_of, _last_level):
                # an equal copy keeps no walk from an earlier test
                fresh = pickle.loads(pickle.dumps(desc))
                calls.clear()
                walk(fresh, g)
                assert calls == [fresh]

    def test_a_walk_past_the_member_budget_is_refused(self, monkeypatch):
        # 27 semigroups have genus at most 5 (A007323 summed)
        n = Restricted(frozenset(), NATURALS)
        monkeypatch.setattr(rvar.engine, "MAX_MEMBERS", 27)
        assert len(members_of(n, 5)[0]) == 27
        assert len(tree_vertices(tree_of(n, 5)[0])) == 27
        assert len(_last_level(n, 5)) == 12
        monkeypatch.setattr(rvar.engine, "MAX_MEMBERS", 26)
        for walk in (members_of, tree_of, _last_level):
            # n keeps its walk at this bound; an equal copy starts without it
            with pytest.raises(CapacityExceeded, match=r"^walk exceeds 26 members$"):
                walk(pickle.loads(pickle.dumps(n)), 5)

    def test_the_refused_level_is_never_built(self, monkeypatch):
        # the budget is checked on the child counts of the level before:
        # levels of genus 1..4 hold 1 + 2 + 4 + 7 = 14 members, and the 12
        # of genus 5 would make 27 in all, so at 26 no member of genus 5 is
        # made; at 27 all 26 below the maximum are
        drops = []
        drop = rvar.engine._drop
        monkeypatch.setattr(rvar.engine, "_drop",
                            lambda sg, x: drops.append(x) or drop(sg, x))
        for walk in (members_of, tree_of, _last_level):
            monkeypatch.setattr(rvar.engine, "MAX_MEMBERS", 27)
            drops.clear()
            walk(Restricted(frozenset(), NATURALS), 5)
            assert len(drops) == 26, walk
            monkeypatch.setattr(rvar.engine, "MAX_MEMBERS", 26)
            drops.clear()
            with pytest.raises(CapacityExceeded, match=r"^walk exceeds 26 members$"):
                walk(Restricted(frozenset(), NATURALS), 5)
            assert len(drops) == 14, walk


class TestMemberMemo:
    # a descriptor keeps its last member walk, so a family restricted by
    # many semigroups is walked once per bound
    def _counted_levels(self, monkeypatch):
        calls = []
        levels = rvar.engine._levels

        def counted(*args):
            calls.append(args[0])
            return levels(*args)
        monkeypatch.setattr(rvar.engine, "_levels", counted)
        return calls

    def test_the_same_bound_walks_once(self, monkeypatch):
        calls = self._counted_levels(monkeypatch)
        desc = Interval(sg(5, 6), DELTA_567)
        first = members_of(desc, 20)
        assert set(first[0]) == set(INTERVAL_MEMBERS) and first[1]
        assert len(calls) == 1
        assert members_of(desc, 20) == first
        restriction_of(desc, sg(5, 7, 9), 20)
        restrict_variety(desc, NATURALS, 20)
        assert len(calls) == 1
        # an equal descriptor is another value, with its own walk
        assert members_of(Interval(sg(5, 6), DELTA_567), 20) == first
        assert len(calls) == 2

    def test_another_bound_walks_again(self, monkeypatch):
        calls = self._counted_levels(monkeypatch)
        n = Restricted(frozenset(), NATURALS)
        assert len(members_of(n, 3)[0]) == 8
        assert len(members_of(n, 4)[0]) == 15
        assert len(members_of(n, 3)[0]) == 8
        assert len(calls) == 3
        # a refused walk keeps nothing, and the kept walk stays: the view
        # of the walked n is born with its cut of n's walk and keeps that,
        # and the view of a fresh copy of n keeps none
        view = descendants(n, sg(2, 3))
        fresh = descendants(pickle.loads(pickle.dumps(n)), sg(2, 3))
        seeded = view._walked
        assert seeded is not None and fresh._walked is None
        for refused in (view, fresh):
            for _ in range(2):
                with pytest.raises(DomainError, match=r"^genus bound 0 is below the genus 1 "):
                    members_of(refused, 0)
        assert view._walked is seeded and fresh._walked is None
        monkeypatch.setattr(rvar.engine, "MAX_MEMBERS", 10)
        with pytest.raises(CapacityExceeded):
            members_of(n, 4)
        assert len(calls) == 8
        assert len(members_of(n, 3)[0]) == 8 and len(calls) == 8

    def test_trees_read_the_kept_walk(self, monkeypatch):
        # after members_of, a tree at the same bound, the view of the
        # maximum and the view of each member below it make no level and
        # take no system function of their own, yet share no node or list
        for desc, bound in ((Restricted({4, 6}, sg(4, 6, 7)), 10),
                            (Interval(sg(5, 6), DELTA_567), 20),
                            (Generated(GENERATED_FIXTURE.f, GENERATED_FIXTURE.delta), 20)):
            mem, _ = members_of(desc, bound)
            assert len(mem) > 1
            calls = []
            step = rvar.engine._next_level
            monkeypatch.setattr(rvar.engine, "_next_level",
                                lambda *args: calls.append(args) or step(*args))
            count_systems(monkeypatch, calls)
            trees = [build_tree(desc, bound), build_tree(desc, bound),
                     build_tree(descendants(desc, delta_of(desc)), bound)]
            views = [descendants(desc, t) for t in mem[1:]]
            below = [build_tree(view, bound) for view in views]
            assert calls == []
            monkeypatch.undo()
            nodes = [tree_vertices(root) for root in trees]
            assert len({id(n) for ns in nodes for n in ns}) == 3 * len(nodes[0])
            assert len({id(n.children) for ns in nodes for n in ns}) == 3 * len(nodes[0])
            fresh = build_tree(pickle.loads(pickle.dumps(desc)), bound)
            assert all(root == fresh for root in trees)
            assert {n.sg for n in nodes[0]} == set(members_of(desc, bound)[0])
            # a view of a fresh copy walks its own subtree, the reference
            copy = pickle.loads(pickle.dumps(desc))
            for t, tree in zip(mem[1:], below):
                view = descendants(copy, t)
                assert view._walked is None
                fresh = build_tree(view, bound)
                assert tree == fresh
                assert not ({id(n) for n in tree_vertices(tree)}
                            & {id(n) for n in tree_vertices(fresh)})

    def test_a_changed_answer_does_not_change_the_next(self):
        desc = Generated(GENERATED_FIXTURE.f, GENERATED_FIXTURE.delta)
        mem, complete = members_of(desc, 20)
        assert set(mem) == set(GENERATED_MEMBERS) and complete
        kept = list(mem)
        mem.clear()
        assert members_of(desc, 20) == (kept, True)

    def test_the_kept_walk_is_no_field(self):
        desc = Restricted({4, 6}, sg(4, 6, 7))
        before = (hash(desc), repr(desc), pickle.dumps(desc))
        members_of(desc, 8)
        assert desc._walked is not None
        assert (hash(desc), repr(desc), pickle.dumps(desc)) == before
        copy = pickle.loads(pickle.dumps(desc))
        assert copy == desc and hash(copy) == hash(desc)
        assert copy._walked is None
        with pytest.raises(AttributeError):
            desc._walked = None


class TestKeptViews:
    # the walk that a family keeps also keeps the views that descendants
    # cut from it, by position, so a repeat query cuts nothing
    FAMILIES = ((Restricted({4, 6}, sg(4, 6, 7)), 10),
                (Interval(sg(5, 6), DELTA_567), 20),
                (Generated(GENERATED_FIXTURE.f, GENERATED_FIXTURE.delta), 20))

    def _counted_cuts(self, monkeypatch):
        calls = []
        cut = rvar.engine._cut
        monkeypatch.setattr(rvar.engine, "_cut",
                            lambda *args: calls.append(args[1]) or cut(*args))
        return calls

    def test_a_repeat_view_is_the_kept_one(self, monkeypatch):
        cuts = self._counted_cuts(monkeypatch)
        for family, bound in self.FAMILIES:
            desc = pickle.loads(pickle.dumps(family))
            mem = members_of(desc, bound)[0]
            cuts.clear()
            views = [descendants(desc, t) for t in mem[1:]]
            assert len(cuts) == len(views) == len(desc._walked[7])
            copy = pickle.loads(pickle.dumps(desc))
            for t, view in zip(mem[1:], views):
                assert descendants(desc, t) is view
                assert view == descendants(copy, t)
                fresh = pickle.loads(pickle.dumps(view))
                members_of(fresh, bound)
                assert view._walked[:6] == fresh._walked[:6]
                # trees of a kept view are still new on every call
                first, again = build_tree(view, bound), build_tree(descendants(desc, t), bound)
                assert first == again == build_tree(fresh, bound)
                assert not ({id(n) for n in tree_vertices(first)}
                            & {id(n) for n in tree_vertices(again)})
            assert len(cuts) == len(views)

    def test_another_bound_drops_the_views_and_a_refused_walk_keeps_them(
            self, monkeypatch):
        n = Restricted(frozenset(), NATURALS)
        members_of(n, 4)
        view = descendants(n, sg(2, 3))
        kept = n._walked[7]
        assert kept == {1: view}
        for bound in (5, 6):
            monkeypatch.setattr(rvar.engine, "MAX_MEMBERS", 10)
            with pytest.raises(CapacityExceeded):
                members_of(n, bound)
            monkeypatch.undo()
            assert n._walked[7] is kept and descendants(n, sg(2, 3)) is view
        members_of(n, 3)
        assert n._walked[7] == {}
        again = descendants(n, sg(2, 3))
        assert again is not view and again == view
        assert members_of(again, 3) == members_of(pickle.loads(pickle.dumps(view)), 3)
        # the view of a member past the bound has no walk and is not kept
        past = descendants(n, sg(5, 6, 7, 8, 9))
        assert past._walked is None and descendants(n, sg(5, 6, 7, 8, 9)) is not past
        assert n._walked[7] == {1: again}

    def test_a_view_past_the_budget_is_not_kept(self, monkeypatch):
        desc = Interval(sg(5, 6), DELTA_567)
        mem = members_of(desc, 20)[0]
        # two views, each counted as the whole walk, fill the budget
        monkeypatch.setattr(rvar.engine, "MAX_MEMBERS", 2 * len(mem))
        first, second, third = (descendants(desc, t) for t in mem[1:4])
        assert desc._walked[7] == {1: first, 2: second}
        again = descendants(desc, mem[3])
        assert again is not third and again == third
        assert again._walked[:6] == third._walked[:6]
        assert descendants(desc, mem[1]) is first

    def test_the_view_of_the_maximum_is_the_family(self):
        for family, bound in self.FAMILIES:
            desc = pickle.loads(pickle.dumps(family))
            members_of(desc, bound)
            assert descendants(desc, delta_of(desc)) is desc
            assert desc._walked[7] == {}


class TestRestrictVariety:
    def test_identity_frames(self):
        got = restrict_variety(INTERVAL_FIXTURE, NATURALS)
        assert got == set(INTERVAL_MEMBERS)
        assert restrict_variety(INTERVAL_FIXTURE, DELTA_567) == set(INTERVAL_MEMBERS)

    def test_interval_by_disjoint_frame(self):
        got = restrict_variety(INTERVAL_FIXTURE, sg(5, 7, 9))
        assert got == {sg(5, 7, 16, 18), sg(5, 12, 14, 16, 18),
                       sg(5, 12, 16, 18, 19), sg(5, 12, 16, 18)}
        check_rvariety_axioms(got)

    def test_a_restriction_fills_no_member_map(self):
        # a restriction reads the walk's members; the map that the walk
        # carries is filled only by the first lookup
        desc = Restricted(frozenset(), NATURALS)
        image, complete = restriction_of(desc, sg(4, 6, 7), 6)
        assert complete is False and sg(4, 6, 7) in image
        assert desc._walked[6] == {}
        assert is_member(desc, sg(2, 3))
        assert len(desc._walked[6]) == len(desc._walked[1])

    def test_generated_restriction_keeps_the_axioms(self):
        got = restrict_variety(GENERATED_FIXTURE, sg(4, 6, 7))
        check_rvariety_axioms(got)
        assert len(got) <= len(GENERATED_MEMBERS)


class TestAxiomChecker:
    def test_accepts_fixture_families(self):
        for _, members in FINITE_FIXTURES:
            check_rvariety_axioms(members)

    def test_rejects_missing_adjunction(self):
        with pytest.raises(AssertionError):
            check_rvariety_axioms({DELTA_567, sg(5, 6, 13)})

    def test_rejects_missing_maximum(self):
        with pytest.raises(AssertionError):
            check_rvariety_axioms({sg(5, 6), sg(5, 7)})

    def test_rejects_missing_intersection(self):
        # <2,5> ∩ <3,4,5> = <4,5,6,7>; every adjunction stays inside
        with pytest.raises(AssertionError,
                           match=r"^intersection escapes: <2,5> ∩ <3,4,5>$"):
            check_rvariety_axioms({NATURALS, sg(2, 3), sg(2, 5), sg(3, 4, 5)})

    def test_rejects_missing_maximum_under_optimize(self):
        # python -O strips assert statements; the checker must still raise
        code = ("from rvar import InvariantError, NATURALS, check_rvariety_axioms\n"
                "from rvar import from_generators as sg\n"
                "for family in ({sg([5, 6]), sg([5, 7])},\n"
                "               {NATURALS, sg([2, 3]), sg([2, 5]), sg([3, 4, 5])}):\n"
                "    try:\n"
                "        check_rvariety_axioms(family)\n"
                "    except InvariantError as e:\n"
                "        print('InvariantError:', e)\n")
        # the child imports the same rvar package as this test
        src = os.path.dirname(os.path.dirname(os.path.abspath(rvar.__file__)))
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == ("InvariantError: no maximum element\n"
                               "InvariantError: intersection escapes: "
                               "<2,5> ∩ <3,4,5>\n")
