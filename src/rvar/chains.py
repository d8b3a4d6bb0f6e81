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
    """Whether s belongs to the family described by desc: the membership
    test of its kernel (see _systems)."""
    return _systems(desc)[0](s)


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
    member, system = _systems(desc)
    if not member(m):
        raise NotInVariety("%s is not a member" % format_semigroup(m))
    return system(m)


def _systems(desc):
    """(member, system): the kernel of a descriptor, its membership test
    and its system function, from a member m to its minimal system as a
    strictly increasing tuple, unchecked; walks take the system once and
    call it on every member.  Both are built once per descriptor and kept
    on it, so each call is a few mask operations on the work that depends
    on the family alone."""
    kernel = getattr(desc, "_system", None)
    if kernel is None:
        if isinstance(desc, Restricted):
            kernel = _restricted_kernel(desc)
        elif isinstance(desc, Generated):
            kernel = _generated_kernel(desc)
        else:
            raise TypeError("not a variety descriptor: %r" % (desc,))
        _set(desc, "_system", kernel)
    return kernel


def _restricted_kernel(desc):
    """The kernel of Restricted(a, t).  s is a member iff s ⊆ t and every
    forced element is in s.  The forced elements are tested one by one: a
    mask of them would be as long as the largest, which nothing bounds.
    A member's system is its minimal generators outside a, read off the
    increasing msg: the forced elements are in every member, so they
    generate nothing new.
    """
    forced, t = desc.a, desc.t

    def member(s):
        return is_subset(s, t) and all(contains(s, x) for x in forced)

    system = msg if not forced else (
        lambda m: tuple([x for x in msg(m) if x not in forced]))
    return member, system


def _generated_kernel(desc):
    """The kernel of Generated(f, Δ), with top the largest conductor of
    a chain link: the largest in f, or that of Δ, the one link, for f = ().

    Membership: s is a member iff s ⊆ Δ and s is the intersection of Δ
    and, for each c in f, the least link of c's chain that contains s:
    c ∪ (Δ ∩ [x, ∞)) with x = min(s ∖ c), or c when s ⊆ c (the README
    proves it).  Every link contains [top, ∞), so the intersection does,
    and s equals it at and above top iff s ⊇ Δ ∩ [top, conductor(s)) =
    [top, conductor(s)), that is iff conductor(s) <= top.  Below top,
    s ∖ c lies in the gaps of c, so x is the lowest bit b of s & gaps(c),
    and the link is c | (Δ & -b), c itself when b = 0: one pass over the
    masks of Δ and of each c below top, which are made once.  For f = ()
    it leaves s = Δ.

    Systems: each family member c not containing m contributes x_c, the
    least element of m missing from c: the part that c gives to an
    intersection generated by B ⊆ m contains m only if its adjoined tail
    starts at x_c, so every system of m holds x_c, and these elements
    alone already generate m.  x_c is the same lowest bit, of m below top
    cut by the gaps of c.
    """
    delta = desc.delta
    top = max([c.conductor for c in desc.f], default=delta.conductor)
    dc, dg, dm = delta.conductor, delta.gaps, _below(delta, top)
    links = [(c.gaps, _below(c, top)) for c in desc.f]

    def member(s):
        if not dc <= s.conductor <= top or s.mask & dg:
            return False
        sm = _below(s, top)
        acc = dm
        for g, cm in links:
            out = sm & g
            acc &= cm | (dm & -(out & -out))
        return acc == sm

    def system(m):
        mm = _below(m, top)
        low = 0
        for g, _ in links:
            out = mm & g
            low |= out & -out
        xs = []
        while low:
            b = low & -low
            xs.append(b.bit_length() - 1)
            low ^= b
        return tuple(xs)
    return member, system


def rrange(desc, m: NumSG) -> int:
    return len(minimal_rsystem(desc, m))
