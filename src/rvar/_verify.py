"""The checks of `rvar verify`: walks against the brute-force oracle.

This is the one module that imports rvar.oracle, so no hot path reaches
the oracle.  It calls the oracle through its module when a check runs
(oracle.oracle_members), not through names bound at import, so a
patched oracle is the one that answers.
"""

import random

from . import descriptors, engine, oracle
from .core import DomainError, from_generators


def lines(seed, count, genus_bound):
    """The lines of `rvar verify --seed seed --count count --genus-bound
    genus_bound`, as a generator: one per check, made as the check runs,
    then a summary.  A failed check ends them with a DomainError once every
    check has run.  A bound below the restricted fixture's maximum is
    refused here, before the generator is made, so before any check runs.
    """
    restricted = descriptors.Restricted(frozenset({4, 6}), from_generators([4, 6, 7]))
    engine._bounded_top(restricted, genus_bound)
    return _lines(_checks(random.Random(seed), restricted, count, genus_bound),
                  seed, count)


def _checks(rng, restricted, count, genus_bound):
    """(label, family, bound, whether node systems are checked) per check:
    three fixtures, then count random families."""
    # the fixtures' node systems are checked too, against the oracle family
    # one genus deeper, which holds m without x for every x in m's system
    yield ("interval fixture", descriptors.Interval(
        from_generators([5, 6]), from_generators([5, 6, 7])), 20, True)
    yield "restricted fixture", restricted, genus_bound, True
    yield ("generated fixture closure", descriptors.Generated(
        (from_generators([5, 7, 9, 11, 13]), from_generators([4, 10, 11, 13])),
        from_generators([4, 5, 7])), 20, True)
    # each random family is drawn as its check comes up, and its maximum
    # fits the bound, so no walk is refused
    for i in range(count):
        kind, make = (("interval", oracle.random_interval) if i % 2 == 0
                      else ("restricted", oracle.random_restricted))
        yield ("random %s #%d" % (kind, i), make(rng, min(8, genus_bound)),
               genus_bound, False)


def _lines(checks, seed, count):
    """One line per check, each walk against the oracle, then the summary."""
    failures = 0
    for label, desc, bound, systems in checks:
        nodes = engine.tree_vertices(engine.tree_of(desc, bound)[0])
        slow = oracle.oracle_members(desc, bound)
        ok = {n.sg for n in nodes} == slow
        if ok and systems:
            family = oracle.oracle_members(desc, bound + 1)
            ok = all(n.min_system == tuple(sorted(
                oracle.minimal_system_from_members(family, n.sg))) for n in nodes)
        yield "%s %s (%d members)" % ("ok" if ok else "FAIL", label, len(slow))
        failures += not ok
    if failures:
        raise DomainError("%d check(s) failed" % failures)
    yield "all checks passed (seed=%d, count=%d)" % (seed, count)
