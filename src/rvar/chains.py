"""Chains between nested semigroups and minimal generating systems.

The chain from S to T adjoins max(T \\ current) until T is reached.  Relative
to a variety descriptor, every monoid expressible as an intersection of
members admits a unique minimal generating system; this module computes it
for both descriptor families, Restricted and Generated.
"""

from .core import (
    NumSG, DomainError, EmptyGenerators, GcdNotOne, _bits, _capped, _require_in,
    _require_subset, contains, format_semigroup, from_generators, is_subset, msg,
    union_with_tail,
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


# chain_to refuses a chain whose links may hold more key bits than this:
# each is at most as wide as the conductor c of s, and c > |t ∖ s|, so
# links × c bounds the bits and also the links (to 32,768).
MAX_CHAIN_BITS = 1 << 30


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
    is re-checked.  t ∖ s lies below the conductor of s.  Past
    MAX_CHAIN_BITS it raises CapacityExceeded before it builds a link.
    """
    _require_subset(s, t)
    new = t.key & ~s.key
    links, width = new.bit_count() + 1, s.conductor
    _capped(links * width, MAX_CHAIN_BITS,
            "chain of %d links up to %d bits wide" % (links, width), "bits")
    fills = tuple(_bits(new)[::-1])
    return ChainRec((s,) + tuple(union_with_tail(s, t, f) for f in fills), fills)


def chain_family(f, delta: NumSG) -> set:
    """Union of the chains of all members of f restricted to delta."""
    out = set()
    for s in f:
        _require_subset(s, delta, "family member ")
        out.update(chain_to(s, delta).links)
    return out


def is_member(desc, s: NumSG) -> bool:
    """Whether s belongs to the family described by desc: True when the
    walk that desc keeps holds s (see _position), else the membership
    test of its kernel (see _systems)."""
    return _position(desc, s) is not None or _systems(desc)[0](s)


def rmonoid_generated(desc, a) -> NumSG:
    """Smallest member-intersection containing the set a, from desc's kernel.

    For Generated descriptors the result is always a numerical semigroup.
    For Restricted descriptors with gcd(forced ∪ a) != 1 the monoid has
    infinite complement and NotNumerical is raised.
    """
    a = frozenset(a)
    _require_in(a, delta_of(desc), NotInDelta)
    return _systems(desc)[2](a)


def minimal_rsystem(desc, m: NumSG) -> frozenset:
    """The unique minimal set B with rmonoid_generated(desc, B) == m.

    m must be a member; it is checked here, because m may come from outside
    the program.
    """
    return frozenset(_checked(desc, m))


def _checked(desc, m: NumSG) -> tuple:
    """m's minimal system, after a check that m, which may come from
    outside the program, is a member: the one desc's kept walk holds,
    as a walk yields only members, else the kernel's."""
    i = _position(desc, m)
    if i is not None:
        return desc._walked[3][i]
    kernel = _systems(desc)
    if not kernel[0](m):
        raise NotInVariety("%s is not a member" % format_semigroup(m))
    return kernel[1](m)


def _position(desc, m: NumSG):
    """m's position in the walk that desc keeps (see engine._walked),
    None when it holds no m: m.key looked up in the walk's member map
    {S.key: position}, filled here on first use; its int keys hash in C."""
    walked = getattr(desc, "_walked", None)
    if walked is None:
        return None
    mem, by_key = walked[1], walked[6]
    if not by_key:
        by_key.update(zip([s.key for s in mem], range(len(mem))))
    return by_key.get(m.key)


def _systems(desc):
    """(member, system, monoid, view): the kernel of a descriptor, the one place
    that knows its kind, chosen once delta_of has refused a non-descriptor.
    system(m) is a member's minimal system as a strictly increasing tuple,
    unchecked; monoid(a) is rmonoid_generated unchecked; view(t, F) writes
    descendants(desc, t) for a member t below the maximum, with F = fdelta(t,
    maximum).  Kept on desc once built, so a call is a few int operations."""
    kernel = getattr(desc, "_system", None)
    if kernel is None:
        delta_of(desc)
        kernel = (_restricted_kernel if isinstance(desc, Restricted)
                  else _generated_kernel)(desc)
        _set(desc, "_system", kernel)
    return kernel


def _restricted_kernel(desc):
    """The kernel of Restricted(a, t).  s is a member iff s ⊆ t and every
    forced element is in s.  The forced elements are tested one by one: an
    int with their bits would be as long as the largest, which nothing bounds.
    A member's system is its minimal generators outside a, read off the
    increasing msg: the forced elements are in every member, so they
    generate nothing new.  The view of t also forces P = t ∩ [0, F]:
    Restricted(a ∪ (msg(t) ∩ [1, F]), t), as msg(t) ∩ [1, F] generates P.
    """
    forced, t = desc.a, desc.t

    def member(s):
        return is_subset(s, t) and all(contains(s, x) for x in forced)

    system = msg if not forced else (
        lambda m: tuple([x for x in msg(m) if x not in forced]))

    def monoid(a):
        try:
            return from_generators([x for x in forced | a if x])
        except (EmptyGenerators, GcdNotOne) as e:
            raise NotNumerical(str(e)) from None

    def view(u, f):
        return Restricted(forced.union([x for x in msg(u) if x <= f]), u)
    return member, system, monoid, view


def _generated_kernel(desc):
    """The kernel of Generated(f, Δ), on keys.

    One form serves membership, monoids and views (the README proves
    it): the least link of c's chain that contains X ⊆ Δ is c ∪ (Δ ∩
    [x, ∞)) with x = min(X ∖ c), or c when X ⊆ c.  X ∖ c lies in the
    gaps of c, so x is the lowest bit b of X & gaps(c), and the link is
    c | (Δ & -b).  close(X) is the intersection of Δ and these links over
    c in f, one pass over keys made once; for f = () it is Δ.  The
    monoid of a is close(a); elements of a at or past top, the largest
    conductor in f, are in every link, so they are left out of its int,
    which would be as long as the largest.  s is a member iff close(s)
    = s, which also puts s in Δ.  The view of t is Generated(f′, t),
    where c′ in f′ is the least link of c's chain that contains
    P = t ∩ [0, F], cut by t.

    Systems: each family member c not containing m contributes x_c, the
    least element of m missing from c: the part that c gives to an
    intersection generated by B ⊆ m contains m only if its adjoined tail
    starts at x_c, so every system of m holds x_c, and these elements
    alone already generate m.  x_c is the same lowest bit, of m cut by
    the gaps of c.
    """
    dk = desc.delta.key
    top = max([c.conductor for c in desc.f], default=0)
    links = [(~c.key, c.key) for c in desc.f]

    def close(x, links=links):
        acc = dk
        for g, ck in links:
            out = x & g
            acc &= ck | (dk & -(out & -out))
        return acc

    def member(s):
        return close(s.key) == s.key

    def system(m):
        mk = m.key
        low = 0
        for g, _ in links:
            out = mk & g
            low |= out & -out
        xs = []
        while low:
            b = low & -low
            xs.append(b.bit_length() - 1)
            low ^= b
        return tuple(xs)

    def monoid(a):
        return NumSG(close(sum([1 << x for x in a if x < top])))

    def view(t, f):
        tk = t.key
        pk = tk & ((2 << f) - 1)
        return Generated([NumSG(tk & close(pk, [link])) for link in links], t)
    return member, system, monoid, view


def rrange(desc, m: NumSG) -> int:
    return len(minimal_rsystem(desc, m))
