"""Fixture families shared by the test modules.

Three finite families are pinned down completely (member lists frozen as
minimal generating sets) plus one infinite family used for level queries.
"""

from rvar import (
    NATURALS, Interval, Restricted, Generated, enumerate_between, from_generators,
)


def sg(*gens):
    return from_generators(list(gens))


DELTA_567 = sg(5, 6, 7)

# interval between <5,6> and <5,6,7>: six members
INTERVAL_FIXTURE = Interval(sg(5, 6), DELTA_567)
INTERVAL_MEMBERS = tuple(sg(*g) for g in [
    (5, 6, 7), (5, 6, 13, 14), (5, 6, 14), (5, 6, 13), (5, 6, 19), (5, 6),
])

# members forced to contain {4,6} inside <4,6,7>: infinite
RESTRICTED_FIXTURE = Restricted(frozenset({4, 6}), sg(4, 6, 7))

# family generated by chains of two semigroups under <4,5,7>: twelve members
GENERATED_FIXTURE = Generated((sg(5, 7, 9, 11, 13), sg(4, 10, 11, 13)),
                              sg(4, 5, 7))
GENERATED_MEMBERS = tuple(sg(*g) for g in [
    (4, 5, 7),
    (5, 7, 8, 9, 11),
    (7, 8, 9, 10, 11, 12, 13),
    (8, 9, 10, 11, 12, 13, 14, 15),
    (9, 10, 11, 12, 13, 14, 15, 16, 17),
    (10, 11, 12, 13, 14, 15, 16, 17, 18, 19),
    (8, 10, 11, 12, 13, 14, 15, 17),
    (7, 9, 10, 11, 12, 13, 15),
    (5, 7, 9, 11, 13),
    (4, 7, 9, 10),
    (4, 9, 10, 11),
    (4, 10, 11, 13),
])

# a nine-member family listed explicitly; every member's Frobenius number
# lies in the maximum, so it doubles as the pseudo-family fixture
PSEUDO_MEMBERS = tuple(sg(*g) for g in [
    (5, 6, 8, 9), (5, 6, 9, 13), (5, 6, 8), (5, 6, 13, 14), (5, 6, 9),
    (5, 6, 14), (5, 6, 13), (5, 6, 19), (5, 6),
])
PSEUDO_FIXTURE = Generated(PSEUDO_MEMBERS, sg(5, 6, 8, 9))

FINITE_FIXTURES = (
    (INTERVAL_FIXTURE, INTERVAL_MEMBERS),
    (GENERATED_FIXTURE, GENERATED_MEMBERS),
    (PSEUDO_FIXTURE, PSEUDO_MEMBERS),
)

# every semigroup of genus at most 7, the probes of the kernel tests
POOL = sorted(enumerate_between((), NATURALS, 7), key=lambda s: s.sort_key())


def count_systems(monkeypatch, calls):
    """Make each kind of family append itself to calls whenever its system
    function is taken, as a walk takes it once; the function is unchanged."""
    for kind in (Restricted, Generated):
        plain = vars(kind)["system"]
        monkeypatch.setattr(kind, "system", property(
            lambda desc, plain=plain: calls.append(desc) or plain.__get__(desc, type(desc))))
