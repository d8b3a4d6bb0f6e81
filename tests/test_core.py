"""Exact semigroup arithmetic: construction, invariants, set operations."""

import pytest

from rvar import (
    NATURALS, AlreadyMember, CapacityExceeded, EmptyGenerators, EqualSemigroups, GcdNotOne,
    InvalidGenerator, NotClosed, NotContained, NotMember, NotMinimalGenerator,
    ParseError, add_element, contains, elements, format_semigroup,
    from_generators, frobenius, genus, intersect, intersect_all, is_subset,
    msg, multiplicity, parse_semigroup, remove_element, restricted_frobenius,
    union_with_tail,
)
from support import sg, DELTA_567


class TestConstruction:
    def test_canonical_small_elements(self):
        s = sg(5, 6, 7)
        assert s.small == (0, 5, 6, 7, 10)
        assert s.conductor == 10

    def test_generator_order_and_duplicates_ignored(self):
        assert sg(7, 5, 6, 6) == sg(5, 6, 7)

    def test_one_generates_everything(self):
        assert sg(1) == NATURALS
        assert sg(3, 1, 5) == NATURALS

    def test_redundant_generators_collapse(self):
        assert sg(5, 6, 11) == sg(5, 6)
        assert msg(sg(5, 6, 11)) == (5, 6)

    def test_empty_generators(self):
        with pytest.raises(EmptyGenerators):
            from_generators([])

    def test_bad_generator_values(self):
        with pytest.raises(InvalidGenerator):
            from_generators([0, 5])
        with pytest.raises(InvalidGenerator):
            from_generators([-3])
        with pytest.raises(InvalidGenerator):
            from_generators([5, "6"])

    def test_gcd_must_be_one(self):
        with pytest.raises(GcdNotOne):
            from_generators([4, 6])

    def test_refusals_name_a_long_list_by_its_ends_and_count(self):
        # up to 8 generators are listed in full, past that the first, the
        # last and the count
        with pytest.raises(GcdNotOne, match=r"^gcd\(2,4,6,8,10,12,14,16\) = 2, not 1$"):
            from_generators(range(2, 18, 2))
        with pytest.raises(GcdNotOne,
                           match=r"^gcd\(2,\.\.\.,18 \(9 generators\)\) = 2, not 1$"):
            from_generators(range(2, 20, 2))
        with pytest.raises(CapacityExceeded, match=r"^sieve for <1000000,\.\.\.,1002999 "
                           r"\(3000 generators\)> exceeds 4000000 entries$"):
            from_generators(range(1_000_000, 1_003_000))

    def test_one_large_redundant_generator_needs_no_large_sieve(self):
        # the first window is set by the two least generators
        assert from_generators([2, 3, 4000001]) == sg(2, 3)
        assert msg(from_generators([3, 5, 4000000])) == (3, 5)

    def test_windows_grow_no_further_than_the_largest_generator_needs(self):
        # gcd(1000, 2000) != 1, so 3001 sets the window: Brauer's bound is
        # 3001 * 999 - 1000, below the sieve limit
        assert from_generators([1000, 2000, 3001]) == from_generators([1000, 3001])

    def test_window_is_brauers_bound_when_the_least_pair_shares_a_factor(self):
        # gcd(2000, 2002) = 2, so 2003 decides the bound: 1,999,998 + 2003 - 2000
        s = from_generators([2000, 2002, 2003])
        assert msg(s) == (2000, 2002, 2003)
        assert frobenius(s) == 1_334_001

    def test_huge_generators_still_exceed_the_sieve(self):
        with pytest.raises(CapacityExceeded,
                           match="sieve for <4000,4001> exceeds 4000000 entries"):
            from_generators([4000, 4001])


class TestBasicInvariants:
    def test_contains(self):
        s = sg(5, 6)
        for x in (0, 5, 6, 10, 11, 12, 20, 21, 999):
            assert contains(s, x)
        for x in (-1, 1, 4, 7, 9, 13, 14, 19):
            assert not contains(s, x)

    def test_frobenius_and_genus(self):
        assert frobenius(sg(5, 6, 7)) == 9
        assert genus(sg(5, 6, 7)) == 6
        assert frobenius(sg(5, 6, 13, 14)) == 9
        assert genus(sg(5, 6, 13, 14)) == 7
        assert frobenius(NATURALS) == -1
        assert genus(NATURALS) == 0

    def test_multiplicity(self):
        assert multiplicity(sg(5, 6)) == 5
        assert multiplicity(NATURALS) == 1

    def test_elements_listing(self):
        assert list(elements(sg(5, 6, 7), 12)) == [0, 5, 6, 7, 10, 11, 12]
        assert list(elements(NATURALS, 3)) == [0, 1, 2, 3]

    def test_msg_round_trip(self):
        for s in (sg(5, 6, 7), sg(4, 6, 7), sg(2, 3), sg(5, 6, 13, 14)):
            assert from_generators(list(msg(s))) == s
        assert msg(NATURALS) == (1,)
        assert msg(sg(4, 6, 7)) == (4, 6, 7)


class TestSetOperations:
    def test_intersect(self):
        assert intersect(sg(5, 7, 9), sg(5, 9, 13, 17, 21)) == sg(5, 9, 17, 21)
        assert intersect(sg(5, 6), NATURALS) == sg(5, 6)
        a, b = sg(4, 5, 7), sg(5, 7, 9, 11, 13)
        assert intersect(a, b) == intersect(b, a)

    def test_intersect_all(self):
        assert intersect_all([sg(2, 5), sg(3, 4), sg(2, 3)]) == sg(4, 6, 7, 9)
        assert intersect_all([sg(5, 6)]) == sg(5, 6)

    def test_is_subset(self):
        assert is_subset(sg(5, 6), sg(5, 6, 7))
        assert is_subset(sg(5, 6, 7), NATURALS)
        assert not is_subset(sg(5, 6, 7), sg(5, 6))
        assert not is_subset(sg(5, 7), sg(5, 6))

    def test_remove_element(self):
        s = remove_element(sg(5, 6, 7), 7)
        assert s == sg(5, 6, 13, 14)
        assert genus(s) == genus(sg(5, 6, 7)) + 1

    def test_remove_requires_minimal_generator(self):
        with pytest.raises(NotMinimalGenerator,
                           match="^10 is not a minimal generator of <5,6,7>$"):
            remove_element(sg(5, 6, 7), 10)
        with pytest.raises(NotMember,
                           match="^4 is not a positive member of <5,6,7>$"):
            remove_element(sg(5, 6, 7), 4)
        with pytest.raises(NotMember,
                           match="^0 is not a positive member of <5,6,7>$"):
            remove_element(sg(5, 6, 7), 0)
        with pytest.raises(NotMember,
                           match="^-5 is not a positive member of <5,6,7>$"):
            remove_element(sg(5, 6, 7), -5)

    def test_add_element_inverts_remove(self):
        s = sg(5, 6, 7)
        assert add_element(remove_element(s, 7), 7) == s

    def test_add_element_errors(self):
        with pytest.raises(NotMember, match="^-1 is negative$"):
            add_element(sg(3, 5), -1)
        with pytest.raises(AlreadyMember):
            add_element(sg(5, 6), 5)
        # 7+6=13 lands outside <5,6> below its conductor
        with pytest.raises(NotClosed):
            add_element(sg(5, 6), 7)

    def test_union_with_tail(self):
        grown = union_with_tail(sg(5, 6, 14), DELTA_567, 13)
        assert grown == sg(5, 6, 13, 14)
        assert union_with_tail(sg(5, 6), DELTA_567, 0) == DELTA_567


class TestRestrictedFrobenius:
    def test_fixture_values(self):
        pairs = {
            (5, 6, 13, 14): 7,
            (5, 6, 14): 13,
            (5, 6, 13): 14,
            (5, 6, 19): 14,
            (5, 6): 19,
        }
        for gens, expected in pairs.items():
            assert restricted_frobenius(sg(*gens), DELTA_567) == expected

    def test_errors(self):
        with pytest.raises(NotContained):
            restricted_frobenius(sg(5, 7), sg(5, 6))
        with pytest.raises(EqualSemigroups):
            restricted_frobenius(DELTA_567, DELTA_567)


class TestParsing:
    def test_bracketed_and_bare(self):
        assert parse_semigroup("<5,6,7>") == sg(5, 6, 7)
        assert parse_semigroup("5,6,7") == sg(5, 6, 7)
        assert parse_semigroup(" < 5 , 6 > ") == sg(5, 6)

    def test_format_uses_msg(self):
        assert format_semigroup(sg(5, 6, 11)) == "<5,6>"
        assert format_semigroup(NATURALS) == "<1>"

    def test_round_trip(self):
        for s in (sg(5, 6, 7), sg(2, 3), NATURALS, sg(4, 10, 11, 13)):
            assert parse_semigroup(format_semigroup(s)) == s

    def test_parse_error_names_token(self):
        with pytest.raises(ParseError, match="x"):
            parse_semigroup("<5,x,7>")
        with pytest.raises(ParseError):
            parse_semigroup("")
