"""Chains between nested semigroups and minimal generating systems.

The chain from S to T adjoins max(T \\ current) until T is reached.  Relative
to a variety descriptor, every monoid expressible as an intersection of
members admits a unique minimal generating system; this module computes it
for every kind of family, from the answers of the family's own class (see
descriptors._Family), after checking what comes from outside the program.
"""

from .core import (
    NumSG, DomainError, _bits, _capped, _require_in, _require_subset,
    format_semigroup, union_with_tail,
)
from .descriptors import _Frozen, _set, delta_of


class NotInDelta(DomainError):
    pass


class NotInVariety(DomainError):
    pass


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
    walk that desc keeps holds s (see _position), else desc.member(s)."""
    return _position(desc, s) is not None or desc.member(s)


def rmonoid_generated(desc, a) -> NumSG:
    """Smallest member-intersection containing the set a: desc.monoid(a).

    For Generated descriptors the result is always a numerical semigroup.
    For Restricted descriptors with gcd(forced ∪ a) != 1 the monoid has
    infinite complement and NotNumerical is raised.
    """
    a = frozenset(a)
    _require_in(a, delta_of(desc), NotInDelta)
    return desc.monoid(a)


def minimal_rsystem(desc, m: NumSG) -> frozenset:
    """The unique minimal set B with rmonoid_generated(desc, B) == m.

    m must be a member; it is checked here, because m may come from outside
    the program.
    """
    return frozenset(_checked(desc, m))


def _checked(desc, m: NumSG) -> tuple:
    """m's minimal system, after a check that m, which may come from
    outside the program, is a member: the one desc's kept walk holds,
    as a walk yields only members, else desc.system(m)."""
    i = _position(desc, m)
    if i is not None:
        return desc._walked[3][i]
    if not desc.member(m):
        raise NotInVariety("%s is not a member" % format_semigroup(m))
    return desc.system(m)


def _position(desc, m: NumSG):
    """m's position in the walk that desc keeps (see engine._walked),
    None when it holds no m: m.key looked up in the walk's member map
    {S.key: position}, filled here on first use; its int keys hash in C.
    Without a kept walk, delta_of refuses a non-descriptor first."""
    walked = getattr(desc, "_walked", None)
    if walked is None:
        delta_of(desc)
        return None
    mem, by_key = walked[1], walked[6]
    if not by_key:
        by_key.update(zip([s.key for s in mem], range(len(mem))))
    return by_key.get(m.key)


def rrange(desc, m: NumSG) -> int:
    return len(minimal_rsystem(desc, m))
