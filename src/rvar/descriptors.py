"""Descriptors for restricted varieties of numerical semigroups.

A descriptor is a finite, hashable recipe for a (possibly infinite) family of
numerical semigroups that has a maximum element, is closed under intersection,
and is closed under adjoining the Frobenius number restricted to the maximum.
Two families are supported, Restricted and Generated.  Interval(lo, hi) is
a constructor, not a family of its own: a semigroup contains lo exactly
when it contains msg(lo), so the interval is Restricted(msg(lo), hi).  The
descendants of a member t form a family with maximum t, which the
family's kernel (chains._systems) writes as a descriptor of its own kind.

Descriptors are small value classes rather than dataclasses: the
dataclasses module pulls inspect, ast and dis into every process that
imports the package, which costs more than most requests compute.
"""

from .core import NumSG, _require_in, _require_subset, msg

_set = object.__setattr__


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
    """A family descriptor.  Its slots that are not fields memoize work on
    it, start as None and are ignored by equality, hash and pickling: its
    kept walk (engine._walked), which carries its own map from each
    member's key (NumSG.key) to its position (chains._position), and its kernel
    (chains._systems)."""

    __slots__ = ("_walked", "_system")

    def _forget(self):
        for slot in _Family.__slots__:
            _set(self, slot, None)


class Restricted(_Family):
    """All semigroups S with a ⊆ S ⊆ t."""

    __slots__ = ("a", "t")

    def __init__(self, a, t: NumSG):
        a = frozenset(a)
        _require_in(a, t, what="forced element ")
        _set(self, "a", a)
        _set(self, "t", t)
        self._forget()


class Generated(_Family):
    """The smallest such family with maximum delta containing every member of f.

    Equals all finite intersections of the chains of f's members restricted
    to delta.
    """

    __slots__ = ("f", "delta")

    def __init__(self, f, delta: NumSG):
        f = tuple(f)
        for s in f:
            _require_subset(s, delta, "family member ")
        _set(self, "f", f)
        _set(self, "delta", delta)
        self._forget()


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
