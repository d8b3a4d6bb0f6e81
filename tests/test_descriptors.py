"""Descriptor values and the package root's lazily loaded oracle names."""

import ast
import pathlib
import pickle

import pytest

import rvar
from rvar import (
    NATURALS, Generated, Interval, NotContained, Restricted, RTreeNode,
    chain_to, delta_of,
)
from rvar.descriptors import _Family
from support import sg


def _four_kinds():
    # a restricted and a generated family with nothing forced or generating
    # share their maximum, and so do the interval and the generated family
    # of the same two semigroups
    lo, hi = sg(5, 6), sg(5, 6, 7)
    return [Restricted((), hi), Generated((), hi),
            Interval(lo, hi), Generated((lo,), hi)]


FIELDS = {Restricted: ("a", "t"), Generated: ("f", "delta")}


class TestDescriptorValues:
    def test_types_built_from_the_same_values_are_unequal(self):
        kinds = _four_kinds()
        for i, a in enumerate(kinds):
            for j, b in enumerate(kinds):
                assert (a == b) == (i == j)
                assert (a != b) == (i != j)
            # nor does any equal the bare tuple of its fields
            assert a != tuple(getattr(a, f) for f in FIELDS[type(a)])

    def test_equal_values_hash_alike(self):
        for a, b in zip(_four_kinds(), _four_kinds()):
            assert a is not b and a == b and hash(a) == hash(b)
            # the fields hash as one tuple, as a frozen dataclass's do
            assert hash(a) == hash(tuple(getattr(a, f) for f in FIELDS[type(a)]))
        assert len(set(_four_kinds() + _four_kinds())) == 4
        for desc in _four_kinds():
            assert pickle.loads(pickle.dumps(desc)) == desc
        rec = chain_to(sg(5, 7), sg(5, 6, 7))
        assert rec == chain_to(sg(5, 7), sg(5, 6, 7))
        assert hash(rec) == hash((rec.links, rec.fill_values))
        # a tree node is mutable, so it is not hashable
        with pytest.raises(TypeError):
            hash(RTreeNode(sg(5, 6), -1, ()))

    def test_only_a_family_has_a_maximum(self):
        with pytest.raises(TypeError, match=r"^not a variety descriptor: \(1, 2\)$"):
            delta_of((1, 2))
        with pytest.raises(TypeError, match="^not a variety descriptor: None$"):
            delta_of(None)

    def test_fields_cannot_be_assigned_or_deleted(self):
        for desc in _four_kinds():
            name = FIELDS[type(desc)][0]
            with pytest.raises(AttributeError):
                setattr(desc, name, NATURALS)
            with pytest.raises(AttributeError):
                desc.extra = 1
            with pytest.raises(AttributeError):
                delattr(desc, name)
        rec = chain_to(sg(5, 7), sg(5, 6, 7))
        with pytest.raises(AttributeError):
            rec.links = ()

    def test_fields_are_normalised_and_checked(self):
        r = Restricted([4, 6, 4], sg(4, 6, 7))
        assert r.a == frozenset({4, 6}) and type(r.a) is frozenset
        g = Generated([sg(5, 7)], sg(5, 6, 7))
        assert g.f == (sg(5, 7),)
        assert Generated(iter([sg(5, 7)]), sg(5, 6, 7)) == g
        with pytest.raises(NotContained, match=r"^<5,6,7> is not contained in <5,6>$"):
            Interval(sg(5, 6, 7), sg(5, 6))
        with pytest.raises(NotContained):
            Restricted({5}, sg(4, 6, 7))
        with pytest.raises(NotContained):
            Generated((sg(2, 3),), sg(5, 6, 7))

    def test_repr_names_the_fields(self):
        assert repr(Restricted({6}, sg(5, 6, 7))) == (
            "Restricted(a=frozenset({6}), t=NumSG(<5,6,7>))")
        assert repr(chain_to(sg(5, 6), sg(5, 6))) == (
            "ChainRec(links=(NumSG(<5,6>),), fill_values=())")


class TestMemoSlots:
    # every slot of a family that is not a field memoizes work on it: the
    # kept walk, which carries the member → position map over it, and the
    # kernel
    def test_memo_slots_start_empty_and_are_no_fields(self):
        slots = _Family.__slots__
        assert slots == ("_walked", "_system")
        lo, hi = sg(5, 6), sg(5, 6, 7)
        for make in (lambda: Restricted({5}, hi), lambda: Generated((lo,), hi),
                     lambda: Interval(lo, hi)):
            desc = make()
            assert [getattr(desc, slot) for slot in slots] == [None] * len(slots)
            before = (hash(desc), repr(desc), pickle.dumps(desc))
            mem = rvar.members_of(desc, 10)[0]
            assert rvar.minimal_rsystem(desc, mem[-1]) is not None
            assert None not in [getattr(desc, slot) for slot in slots]
            assert (hash(desc), repr(desc), pickle.dumps(desc)) == before
            assert desc == make() and hash(desc) == hash(make())
            copy = pickle.loads(pickle.dumps(desc))
            assert copy == desc
            assert [getattr(copy, slot) for slot in slots] == [None] * len(slots)


class TestIntervalConstructor:
    def test_an_interval_is_restricted_to_the_minimal_generators_of_lo(self):
        # a semigroup contains lo exactly when it contains msg(lo)
        desc = Interval(sg(5, 6, 13), sg(5, 6, 7))
        assert desc == Restricted({5, 6, 13}, sg(5, 6, 7))
        assert type(desc) is Restricted
        assert Interval(sg(5, 6), sg(5, 6)) == Restricted({5, 6}, sg(5, 6))
        assert Interval(NATURALS, NATURALS) == Restricted({1}, NATURALS)


STAR_NAMES = [
    "AlreadyMember", "CapacityExceeded", "ChainRec", "DEFAULT_GENUS_BOUND",
    "DomainError", "EmptyGenerators", "EqualSemigroups", "GcdNotOne", "Generated",
    "Interval", "InvalidGenerator", "InvariantError", "KINDS", "LD", "NATURALS",
    "NoContainingElement", "NotClosed", "NotContained", "NotInDelta",
    "NotInVariety", "NotMember", "NotMinimalGenerator", "NotNumerical", "NumSG",
    "PL", "ParseError", "RTreeNode", "Restricted", "add_element", "build_tree",
    "chain_family", "chain_to", "chains", "children", "closures", "contains",
    "core", "delta_of", "descendants", "descriptors", "elements", "engine",
    "format_semigroup", "frobenius", "from_generators", "genus", "genus_level",
    "intersect", "intersect_all", "is_member", "is_pseudo_variety", "is_subset",
    "member", "members_of", "minimal_rsystem", "minimal_vsystem", "msg",
    "multiplicity", "parse_semigroup", "remove_element", "restrict_variety",
    "restricted_closure", "restricted_frobenius", "rmonoid_generated", "rrange",
    "tree_of", "tree_vertices", "union_with_tail", "variety_closure",
]
ORACLE_NAMES = [
    "check_rvariety_axioms", "enumerate_between", "minimal_system_from_members",
    "oracle", "oracle_members", "random_interval", "random_restricted",
    "random_semigroup", "random_subsemigroup", "smallest_containing",
]


class TestLazyOracleNames:
    def test_oracle_names_resolve(self):
        from rvar import oracle_members
        from rvar.oracle import minimal_system_from_members
        assert oracle_members is rvar.oracle.oracle_members
        assert rvar.minimal_system_from_members is minimal_system_from_members

    def test_dir_lists_them(self):
        names = dir(rvar)
        for name in ("oracle_members", "minimal_system_from_members", "random_interval",
                     "Interval", "build_tree"):
            assert name in names

    def test_every_public_oracle_function_is_named(self):
        # the name table is kept by hand: its oracle row names every public
        # function of rvar.oracle, and nothing besides them
        import rvar.oracle
        body = ast.parse(pathlib.Path(rvar.oracle.__file__).read_text()).body
        public = {n.name for n in body if isinstance(n, ast.FunctionDef)
                  and not n.name.startswith("_")}
        assert len(public) >= 9
        names = dir(rvar)
        for name in sorted(public):
            assert getattr(rvar, name) is getattr(rvar.oracle, name)
            assert name in names
        assert set(rvar._NAMES["oracle"]) == public
        assert "oracle" in names

    def test_star_import_and_dir_keep_their_names(self):
        # the modules and their names, as an eager package root exported
        # them; dir adds the oracle's, and the loader's helpers stay private
        star = {}
        exec("from rvar import *", star)
        del star["__builtins__"]
        assert sorted(star) == STAR_NAMES
        assert all(star[name] is getattr(rvar, name) for name in star)
        # importing rvar.cli binds it in the package, as it would any module
        public = [name for name in dir(rvar) if not name.startswith("_") and name != "cli"]
        assert public == sorted(STAR_NAMES + ORACLE_NAMES)

    def test_an_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            rvar.no_such_name
        with pytest.raises(ImportError):
            from rvar import no_such_name  # noqa: F401
