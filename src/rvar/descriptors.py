"""Descriptors for restricted varieties of numerical semigroups.

A descriptor is a finite, hashable recipe for a (possibly infinite) family of
numerical semigroups that has a maximum element, is closed under intersection,
and is closed under adjoining the Frobenius number restricted to the maximum.
Two kinds of family are supported, Restricted and Generated, and a family's
kind is its class: each class answers membership, a member's minimal system,
the monoid a set generates and the view of a member's descendants (see
_Family).  Interval(lo, hi) is a constructor, not a family of its own: a
semigroup contains lo exactly when it contains msg(lo), so the interval is
Restricted(msg(lo), hi).  The descendants of a member t form a family with
maximum t, which the family's view writes as a descriptor of its own kind.

Descriptors are small value classes rather than dataclasses: the
dataclasses module pulls inspect, ast and dis into every process that
imports the package, which costs more than most requests compute.
"""

from .core import (
    NumSG, DomainError, EmptyGenerators, GcdNotOne, _require_in, _require_subset,
    contains, from_generators, is_subset, msg,
)

_set = object.__setattr__


class NotNumerical(DomainError):
    """The generated monoid has infinite complement (gcd of generators != 1)."""


class _Record:
    """Equality and repr over the fields named in __slots__, as a dataclass
    has them: equal only to an instance of the same class with equal fields."""

    __slots__ = ()

    def _fields(self):
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))


class _Frozen(_Record):
    """An immutable _Record.  __init__ sets the fields with _set, and the
    fields hash as one tuple, like a frozen dataclass."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()


class _Family(_Frozen):
    """A family descriptor.  Its class is its kind, and answers four
    questions, none of which checks its input:
    - member(s): whether s is a member;
    - system(m): a member's minimal system, as a strictly increasing tuple;
    - monoid(a): rmonoid_generated of a ⊆ the maximum;
    - view(t, F): descendants of a member t below the maximum, with
      F = fdelta(t, maximum), as a family of the same kind.
    Its one slot that is not a field memoizes its kept walk
    (engine._walked), which carries its own map from each member's key
    (NumSG.key) to its position (chains._position) and the views that
    engine.descendants cut from it; it starts as None and is ignored by
    equality, hash and pickling."""

    __slots__ = ("_walked",)


class Restricted(_Family):
    """All semigroups S with a ⊆ S ⊆ t.

    s is a member iff s ⊆ t and every forced element is in s.  The forced
    elements are tested one by one: an int with their bits would be as long
    as the largest, which nothing bounds.  A member's system is its minimal
    generators outside a, read off the increasing msg: the forced elements
    are in every member, so they generate nothing new.  The view of u also
    forces P = u ∩ [0, F]: Restricted(a ∪ (msg(u) ∩ [1, F]), u), as
    msg(u) ∩ [1, F] generates P.
    """

    __slots__ = ("a", "t")

    def __init__(self, a, t: NumSG):
        a = frozenset(a)
        _require_in(a, t, what="forced element ")
        _set(self, "a", a)
        _set(self, "t", t)
        _set(self, "_walked", None)

    def member(self, s):
        return is_subset(s, self.t) and all(contains(s, x) for x in self.a)

    @property
    def system(self):
        # msg itself when nothing is forced, so a walk of N's tree makes
        # no call of its own per member
        forced = self.a
        return msg if not forced else (
            lambda m: tuple([x for x in msg(m) if x not in forced]))

    def monoid(self, a):
        try:
            return from_generators([x for x in self.a | a if x])
        except (EmptyGenerators, GcdNotOne) as e:
            raise NotNumerical(str(e)) from None

    def view(self, u, f):
        return Restricted(self.a.union([x for x in msg(u) if x <= f]), u)


class Generated(_Family):
    """The smallest such family with maximum delta containing every member of f.

    Equals all finite intersections of the chains of f's members restricted
    to delta.  Its answers are on keys.

    One form serves membership, monoids and views (the README proves it):
    the least link of c's chain that contains X ⊆ Δ is c ∪ (Δ ∩ [x, ∞))
    with x = min(X ∖ c), or c when X ⊆ c.  X ∖ c lies in the gaps of c, so
    x is the lowest bit b of X & gaps(c), and the link is c | (Δ & -b).
    _close(X) is the intersection of Δ and these links over c in f; for
    f = () it is Δ.  The monoid of a is _close(a); elements of a at or past
    the largest conductor in f are in every link, so they are left out of
    its int, which would be as long as the largest.  s is a member iff
    _close(s) = s, which also puts s in Δ.  The view of t is Generated(f′,
    t), where c′ in f′ is the least link of c's chain that contains
    P = t ∩ [0, F], cut by t.

    Systems: each family member c not containing m contributes x_c, the
    least element of m missing from c: the part that c gives to an
    intersection generated by B ⊆ m contains m only if its adjoined tail
    starts at x_c, so every system of m holds x_c, and these elements
    alone already generate m.  x_c is the same lowest bit, of m cut by
    the gaps of c.
    """

    __slots__ = ("f", "delta")

    def __init__(self, f, delta: NumSG):
        f = tuple(f)
        for s in f:
            _require_subset(s, delta, "family member ")
        _set(self, "f", f)
        _set(self, "delta", delta)
        _set(self, "_walked", None)

    def _close(self, x, f=None):
        dk = self.delta.key
        acc = dk
        for c in self.f if f is None else f:
            out = x & ~c.key
            acc &= c.key | (dk & -(out & -out))
        return acc

    def member(self, s):
        return self._close(s.key) == s.key

    def system(self, m):
        mk = m.key
        low = 0
        for c in self.f:
            out = mk & ~c.key
            low |= out & -out
        xs = []
        while low:
            b = low & -low
            xs.append(b.bit_length() - 1)
            low ^= b
        return tuple(xs)

    def monoid(self, a):
        top = max([c.conductor for c in self.f], default=0)
        return NumSG(self._close(sum([1 << x for x in a if x < top])))

    def view(self, t, f):
        tk = t.key
        pk = tk & ((2 << f) - 1)
        return Generated([NumSG(tk & self._close(pk, (c,))) for c in self.f], t)


def Interval(lo: NumSG, hi: NumSG) -> Restricted:
    """All semigroups between lo and hi inclusive: Restricted(msg(lo), hi)."""
    _require_subset(lo, hi)
    return Restricted(frozenset(msg(lo)), hi)


def delta_of(desc) -> NumSG:
    """The maximum member of the described family."""
    if isinstance(desc, Restricted):
        return desc.t
    if isinstance(desc, Generated):
        return desc.delta
    raise TypeError("not a variety descriptor: %r" % (desc,))
