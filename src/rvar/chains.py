"""Chains between nested semigroups and minimal generating systems.

The chain from S to T adjoins max(T \\ current) until T is reached.  Relative
to a variety descriptor, every monoid expressible as an intersection of
members admits a unique minimal generating system; this module computes it
for both descriptor families, Restricted and Generated.
"""

from .core import (
    NumSG, DomainError, EmptyGenerators, GcdNotOne, _below,
    _bits, _require_subset, contains, format_semigroup, from_generators,
    intersect_all, is_subset, msg, union_with_tail,
)
from .descriptors import Restricted, Generated, _Frozen, _set, delta_of


class NotInDelta(DomainError):
    pass


class NotInVariety(DomainError):
    pass


class NotNumerical(DomainError):
    """The generated monoid has infinite complement (gcd of generators != 1)."""


class NoContainingElement(DomainError):
    pass


class ChainRec(_Frozen):
    """links[0] ⊊ links[1] ⊊ ... ⊊ links[-1]; fill_values[i] joins links[i] to links[i+1]."""

    __slots__ = ("links", "fill_values")

    def __init__(self, links: tuple, fill_values: tuple):
        _set(self, "links", links)
        _set(self, "fill_values", fill_values)


def chain_to(s: NumSG, t: NumSG) -> ChainRec:
    """The chain from s up to t; single link when s == t.

    The values adjoined are the elements of t ∖ s in decreasing order, and
    the link after adjoining f is s ∪ (t ∩ [f, ∞)): every element of t above
    f was adjoined before it or is in s.  Such a union is closed, so no link
    is re-checked.  t ∖ s lies below the conductor of s.
    """
    _require_subset(s, t)
    fills = tuple(_bits(_below(t, s.conductor) & ~s.mask)[::-1])
    return ChainRec((s,) + tuple(union_with_tail(s, t, f) for f in fills), fills)


def chain_family(f, delta: NumSG) -> set:
    """Union of the chains of all members of f restricted to delta."""
    out = set()
    for s in f:
        _require_subset(s, delta, "family member ")
        out.update(chain_to(s, delta).links)
    return out


def is_member(desc, s: NumSG) -> bool:
    """Whether s belongs to the family described by desc."""
    if isinstance(desc, Restricted):
        return all(contains(s, x) for x in desc.a) and is_subset(s, desc.t)
    if isinstance(desc, Generated):
        # s is a member iff it is the intersection of the chain links that
        # contain it.  The links of c's chain are c ∪ (Δ ∩ [n, ∞)), so the
        # least one containing s starts its tail at n = min(s ∖ c); with b
        # the lowest bit of s ∖ c that tail is Δ & -b, and b = 0 when s ⊆ c
        # leaves c itself.  Δ, the last link of every chain, stands for the
        # family when f is empty.  No conductor exceeds top, so the masks
        # below it decide.
        delta = desc.delta
        if not is_subset(s, delta):
            return False
        top = max([s.conductor] + [c.conductor for c in desc.f])
        sm, dm = _below(s, top), _below(delta, top)
        acc = dm
        for c in desc.f:
            out = sm & c.gaps
            acc &= _below(c, top) | (dm & -(out & -out))
        return acc == sm
    raise TypeError("not a variety descriptor: %r" % (desc,))


def rmonoid_generated(desc, a) -> NumSG:
    """Smallest member-intersection containing the set a.

    For Generated descriptors the result is always a numerical semigroup.
    For Restricted descriptors with gcd(forced ∪ a) != 1 the monoid has
    infinite complement and NotNumerical is raised.
    """
    a = frozenset(a)
    delta = delta_of(desc)
    for x in a:
        if x < 0 or not contains(delta, x):
            raise NotInDelta("%d is not in %s" % (x, format_semigroup(delta)))
    if isinstance(desc, Restricted):
        try:
            return from_generators([x for x in desc.a | a if x])
        except (EmptyGenerators, GcdNotOne) as e:
            raise NotNumerical(str(e)) from None
    if isinstance(desc, Generated):
        parts = []
        for s in desc.f:
            if all(contains(s, x) for x in a):
                parts.append(s)
            else:
                x_s = min(x for x in a if not contains(s, x))
                parts.append(union_with_tail(s, desc.delta, x_s))
        if not parts:
            return delta
        return intersect_all(parts)
    raise TypeError("not a variety descriptor: %r" % (desc,))


def minimal_rsystem(desc, m: NumSG) -> frozenset:
    """The unique minimal set B with rmonoid_generated(desc, B) == m.

    m must be a member; it is checked here, because m may come from outside
    the program.
    """
    return frozenset(_member_system(desc, m))


def _member_system(desc, m: NumSG) -> tuple:
    """minimal_rsystem as a strictly increasing tuple, after the same check."""
    if not is_member(desc, m):
        raise NotInVariety("%s is not a member" % format_semigroup(m))
    return _systems(desc)(m)


def _systems(desc):
    """The system kernel of a descriptor: a function from a member m
    to its minimal system as a strictly increasing tuple, unchecked; for
    callers that walk members.  The work that depends on the family alone
    is done once and kept on desc, so each call is a few mask operations.

    Restricted families reduce to the minimal generators outside the forced
    part, read off the increasing msg.  In a Generated family each family
    member s not containing m contributes x_s, the least element of m missing
    from s: the part that s gives to an intersection generated by B ⊆ m
    contains m only if its adjoined tail starts at x_s, so every system of m
    holds x_s, and these elements alone already generate m.  Every element of
    m at or past the conductor of s is in s, so x_s is the lowest bit of m's
    mask below the largest conductor top in f, cut by the gaps of s.
    """
    system = getattr(desc, "_system", None)
    if system is not None:
        return system
    if isinstance(desc, Restricted):
        forced = desc.a
        system = msg if not forced else (
            lambda m: tuple([x for x in msg(m) if x not in forced]))
    elif isinstance(desc, Generated):
        gaps = [s.gaps for s in desc.f]
        top = max([s.conductor for s in desc.f], default=0)

        def system(m):
            mm = _below(m, top)
            low = 0
            for g in gaps:
                out = mm & g
                low |= out & -out
            xs = []
            while low:
                b = low & -low
                xs.append(b.bit_length() - 1)
                low ^= b
            return tuple(xs)
    else:
        raise TypeError("not a variety descriptor: %r" % (desc,))
    _set(desc, "_system", system)
    return system


def rrange(desc, m: NumSG) -> int:
    return len(minimal_rsystem(desc, m))
