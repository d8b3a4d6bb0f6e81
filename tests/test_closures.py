"""Arithmetic variety closures and the minimal systems they induce."""

import pytest

from rvar import (
    LD, PL, NATURALS, CapacityExceeded, DomainError, EmptyGenerators,
    InvalidGenerator, NotClosed, NotContained, closures, contains, core, elements,
    frobenius, genus, minimal_vsystem, msg, restricted_closure,
    variety_closure,
)
from support import sg


class TestVarietyClosure:
    def test_ld_single_generator(self):
        assert variety_closure(LD, [5]) == sg(5, 9, 13, 17, 21)

    def test_pl_pair(self):
        assert variety_closure(PL, [4, 7]) == sg(4, 7, 9)

    def test_ld_larger_seed(self):
        assert variety_closure(LD, [4, 7, 10]) == sg(4, 7, 10, 13)

    def test_one_gives_naturals(self):
        assert variety_closure(LD, [1]) == NATURALS
        assert variety_closure(PL, [1, 6]) == NATURALS

    def test_closure_is_extensive(self):
        for kind, gens in ((LD, [6, 7]), (PL, [5, 8]), (LD, [9, 11])):
            closed = variety_closure(kind, gens)
            for g in gens:
                assert contains(closed, g)

    def test_closure_is_idempotent(self):
        for kind, gens in ((LD, [5]), (PL, [4, 7]), (LD, [4, 7, 10])):
            once = variety_closure(kind, gens)
            again = variety_closure(kind, list(msg(once)))
            assert once == again

    def test_pl_single_generator_slow_tail(self):
        # closure of {9} is the blocks [9n, 10n-1], contiguous only from 81
        closed = variety_closure(PL, [9])
        assert contains(closed, 19)
        assert contains(closed, 29)
        assert not contains(closed, 10)
        assert not contains(closed, 80)
        assert frobenius(closed) == 80

    def test_generators_past_the_window_are_redundant(self):
        # the window is set by the least generator: 2000 lies in the tail of
        # the closure of {5}, so it needs no window of its own
        assert variety_closure(LD, [5, 2000]) == sg(5, 9, 13, 17, 21)
        assert variety_closure(PL, [4, 10 ** 30]) == variety_closure(PL, [4])

    def test_the_sieve_limit_is_cores_read_at_each_call(self, monkeypatch):
        # closures and from_generators share core's one sieve limit, read
        # when the sieve is asked for: pl [5] needs (5 - 1)(2 * 5) = 40 entries
        monkeypatch.setattr(core, "MAX_SIEVE", 39)
        with pytest.raises(CapacityExceeded,
                           match="^sieve for the pl closure of 5 exceeds 39 entries$"):
            variety_closure(PL, [5])
        monkeypatch.setattr(core, "MAX_SIEVE", 40)
        assert variety_closure(PL, [5]) == sg(5, 11, 17, 23, 29)

    def test_least_generator_sets_the_sieve_bound(self, monkeypatch):
        # a closure is refused exactly when Sylvester's bound for g = min(gens),
        # (g - 1)(2g + offset - 1), exceeds MAX_SIEVE = 4,000,000: pl [1414]
        # needs 3,995,964 entries, pl [1415] 4,001,620, ld [1415] 3,998,792
        # and ld [1416] 4,004,450
        sieved = []
        monkeypatch.setattr(closures, "_sieve",
                            lambda mask, gens, top: sieved.append(top))
        for kind, g in ((PL, 1415), (LD, 1416)):
            with pytest.raises(CapacityExceeded,
                               match="^sieve for the %s closure of %d,5000 "
                                     "exceeds 4000000 entries$" % (kind, g)):
                variety_closure(kind, [5000, g])
        assert sieved == []  # refused before the search
        # a long list is named by its ends and its count
        with pytest.raises(CapacityExceeded,
                           match=r"^sieve for the pl closure of 1415,\.\.\.,5008 "
                                 r"\(10 generators\) exceeds 4000000 entries$"):
            variety_closure(PL, [1415, *range(5000, 5009)])
        monkeypatch.undo()
        # within the bound: the closed forms below, at the largest g allowed
        assert variety_closure(PL, [1414]).conductor == 1414 ** 2
        assert variety_closure(LD, [1415]).conductor == 1414 ** 2 + 1
        # minimal_vsystem has no cap of its own: its input is already built
        with pytest.raises(NotClosed, match=r"^2 \+ 2 \+ 1 = 5 escapes <2,131073>$"):
            minimal_vsystem(PL, sg(2, 131073))

    @pytest.mark.parametrize("g", [257, 300])
    def test_single_generator_closed_forms(self, g):
        # pl: the blocks kg + j, 0 <= j < k, conductor g^2, genus (g-1)(g+2)/2;
        # ld: the blocks kg - j, 0 <= j < k, conductor (g-1)^2 + 1, genus g(g-1)/2
        for kind, members, conductor, gaps in (
                (PL, {k * g + j for k in range(g) for j in range(k)},
                 g * g, (g - 1) * (g + 2) // 2),
                (LD, {k * g - j for k in range(g) for j in range(k)},
                 (g - 1) ** 2 + 1, g * (g - 1) // 2)):
            v = variety_closure(kind, [g])
            assert v.conductor == conductor
            assert set(elements(v, conductor - 1)) == {0} | {
                x for x in members if x < conductor}
            assert genus(v) == gaps
            assert minimal_vsystem(kind, v) == frozenset({g})

    def test_errors(self):
        # the same checks and messages as from_generators
        with pytest.raises(EmptyGenerators, match="^no generators given$"):
            variety_closure(LD, [])
        with pytest.raises(InvalidGenerator,
                           match="^generator 0 is not a positive integer$"):
            variety_closure(LD, [0])
        with pytest.raises(InvalidGenerator):
            variety_closure(PL, [-2, 5])
        with pytest.raises(InvalidGenerator,
                           match="^generator '7' is not a positive integer$"):
            variety_closure(PL, [5, "7"])
        with pytest.raises(DomainError):
            variety_closure("qq", [5])


class TestRestrictedClosure:
    def test_anchor(self):
        t = sg(4, 7, 9)
        got = restricted_closure(LD, [4, 7], t)
        assert got == sg(4, 7, 13)

    def test_fixpoint_when_already_closed(self):
        t = variety_closure(LD, [4, 7, 10])
        assert restricted_closure(LD, list(msg(t)), t) == t
        u = variety_closure(PL, [4, 7])
        assert restricted_closure(PL, list(msg(u)), u) == u

    def test_result_sits_inside_the_frame(self):
        from rvar import is_subset
        t = sg(4, 6, 7)
        got = restricted_closure(PL, [4, 6], t)
        assert is_subset(got, t)

    def test_requires_containment(self):
        with pytest.raises(NotContained):
            restricted_closure(LD, [5], sg(4, 6, 7))


class TestMinimalVSystem:
    def test_ld_anchor(self):
        m = variety_closure(LD, [5])
        assert minimal_vsystem(LD, m) == frozenset({5})

    def test_pl_anchor(self):
        m = variety_closure(PL, [4, 7])
        assert minimal_vsystem(PL, m) == frozenset({4, 7})

    def test_redundant_seeds_collapse(self):
        # 7 = 4+4-1 and 10 = 4+7-1, so 4 alone carries the whole system
        m = variety_closure(LD, [4, 7, 10])
        assert m == variety_closure(LD, [4])
        assert minimal_vsystem(LD, m) == frozenset({4})

    def test_naturals_need_one(self):
        assert minimal_vsystem(LD, NATURALS) == frozenset({1})
        assert minimal_vsystem(PL, NATURALS) == frozenset({1})

    def test_rejects_unclosed_monoid(self):
        # 5 + 9 - 1 = 13 escapes <5,7,9>
        with pytest.raises(NotClosed):
            minimal_vsystem(LD, sg(5, 7, 9))

    def test_system_regenerates(self):
        for kind, gens in ((LD, [6, 7]), (PL, [5, 8]), (LD, [8, 9, 11])):
            m = variety_closure(kind, gens)
            sys = minimal_vsystem(kind, m)
            assert variety_closure(kind, sorted(sys)) == m
