"""Exact arithmetic on numerical semigroups.

A numerical semigroup is a subset of the nonnegative integers that contains 0,
is closed under addition, and has finite complement.  A value is stored as its
key: the negative int whose set bits, in two's complement, are exactly its
members, so every bit from the conductor on is set and ~key is the finite set
of gaps.  S ↦ key is a bijection, so equal semigroups have equal keys, and set
operations are int operations on keys: key(S ∩ T) = key(S) & key(T).
All operations are pure; NumSG values are immutable and hashable.
"""

from functools import reduce
from math import gcd


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class EmptyGenerators(DomainError):
    pass


class InvalidGenerator(DomainError):
    pass


class GcdNotOne(DomainError):
    pass


class NotMember(DomainError):
    pass


class NotMinimalGenerator(DomainError):
    pass


class AlreadyMember(DomainError):
    pass


class NotClosed(DomainError):
    pass


class NotContained(DomainError):
    pass


class EqualSemigroups(DomainError):
    pass


class CapacityExceeded(DomainError):
    pass


class ParseError(ValueError):
    """Malformed semigroup text; a usage error, not a domain error."""


class InvariantError(AssertionError):
    """A failed internal check: a fault of the program, raised even under -O."""


# Dense sieves refuse to grow past this many entries, so hostile generator
# sets fail loudly instead of exhausting memory.
MAX_SIEVE = 4_000_000


class NumSG:
    """A numerical semigroup as its key.

    key: the negative int whose set bits are exactly the members, the
    infinite tail from the conductor on included; ~key is the gaps.
    Construct via from_generators or the module helpers, not directly.
    """

    __slots__ = ("key", "_msg")

    def __init__(self, key):
        self.key = key
        self._msg = None

    def __eq__(self, other):
        return isinstance(other, NumSG) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "NumSG(%s)" % format_semigroup(self)

    @property
    def conductor(self):
        """frobenius + 1, the bit length of the gaps; 0 exactly for N."""
        return (~self.key).bit_length()

    @property
    def gaps(self):
        """int whose bit x is set iff x is a gap: a nonnegative integer outside."""
        return ~self.key

    @property
    def small(self):
        """Strictly increasing tuple of all members <= conductor."""
        return tuple(elements(self, self.conductor))

    # total order used only for deterministic output
    def sort_key(self):
        """(genus, msg), a key that orders exactly like (genus, small).

        At equal genus neither small(S) nor small(T) is a prefix of the
        other: the longer would have a gap past the other's conductor.  Let
        x be the first entry of small(S) that differs from T's and is the
        smaller one; then x is in S and not in T, and S and T agree below x.
        x is a minimal generator of S, since T holds every sum of smaller
        nonzero members of S, and below x the generators of S and T are
        those of their shared members.  So msg(T) follows that shared prefix
        with a generator larger than x, or stops there; it cannot stop,
        since T would then be generated by elements of S and lie inside S
        at equal genus.
        """
        return (genus(self), msg(self))


def _bits(m):
    """Positions of the set bits of m >= 0, increasing."""
    return [i for i, b in enumerate(bin(m)[:1:-1]) if b == "1"]


def _intersect_each(sgs, u) -> set:
    """{S ∩ u | S in sgs}: one & with u's key per S, and one NumSG per
    distinct image."""
    uk = u.key
    return set(map(NumSG, {s.key & uk for s in sgs}))


def _valid_generators(gens) -> list:
    """gens, nonempty positive ints, as an increasing list without repeats."""
    gens = list(gens)
    if not gens:
        raise EmptyGenerators("no generators given")
    for g in gens:
        if not isinstance(g, int) or g < 1:
            raise InvalidGenerator("generator %r is not a positive integer" % (g,))
    return sorted(set(gens))


def _listed(gens) -> str:
    """gens joined by commas; past 8 of them, the first, the last and the count."""
    if len(gens) <= 8:
        return ",".join(map(str, gens))
    return "%d,...,%d (%d generators)" % (gens[0], gens[-1], len(gens))


def _capped(size, limit, what, unit):
    """Refuse what, of size units, past limit: the one CapacityExceeded."""
    if size > limit:
        raise CapacityExceeded("%s exceeds %d %s" % (what, limit, unit))


def from_generators(gens) -> NumSG:
    """Canonical numerical semigroup generated by gens; requires gcd 1."""
    gens = _valid_generators(gens)
    if gens[0] == 1:
        return NATURALS
    # Brauer (1942): with d_i = gcd(a_1, ..., a_i) for the increasing
    # generators, F(S) <= sum of a_(i+1) (d_i / d_(i+1) - 1), less a_1;
    # Erdős and Graham (1972): F(S) <= 2 a_(n-1) floor(a_n / n) - a_n;
    # so every integer from top, one past the smaller bound, is a member
    d, top = gens[0], 1 - gens[0]
    for a in gens[1:]:
        e = gcd(d, a)
        top += a * (d // e - 1)
        d = e
    if d != 1:
        raise GcdNotOne("gcd(%s) = %d, not 1" % (_listed(gens), d))
    top = min(top, 2 * gens[-2] * (gens[-1] // len(gens)) - gens[-1] + 1)
    _capped(top, MAX_SIEVE, "sieve for <%s>" % _listed(gens), "entries")
    return _sieve(1, gens, top)


def _sieve(reachable, gens, top) -> NumSG:
    """reachable + <gens> below top, and all of [top, ∞), as a semigroup."""
    # closing under +g, then +2g, +4g, ... closes under every multiple of g
    window = (1 << top) - 1
    for g in gens:
        step = g
        while step < top:
            reachable |= (reachable << step) & window
            step <<= 1
    return NumSG(reachable | -(1 << top))


def contains(s: NumSG, x) -> bool:
    return x >= 0 and s.key >> x & 1 == 1


def frobenius(s: NumSG) -> int:
    """Largest integer not in s; -1 when s is all of N."""
    return (~s.key).bit_length() - 1


def genus(s: NumSG) -> int:
    """Number of gaps (nonnegative integers outside s)."""
    return (~s.key).bit_count()


def multiplicity(s: NumSG) -> int:
    nonzero = s.key & ~1
    return (nonzero & -nonzero).bit_length() - 1


def elements(s: NumSG, limit):
    """Yield the members of s that are <= limit, in increasing order."""
    if limit >= 0:
        yield from _bits(s.key & ((1 << (limit + 1)) - 1))


def msg(s: NumSG) -> tuple:
    """The unique minimal generating set, strictly increasing.

    An element is a minimal generator iff it is not the sum of a smaller
    minimal generator and a nonzero member; all candidates lie in
    (0, conductor + multiplicity], and are taken least first.
    """
    if s._msg is None:
        key = s.key
        low = key & ~1
        # conductor + multiplicity + 1: the lowest bit of low is m's
        top = (~key).bit_length() + (low & -low).bit_length()
        nonzero = low & ((1 << top) - 1)
        gens, sums, cand = [], 0, nonzero
        while cand:
            g = (cand & -cand).bit_length() - 1
            gens.append(g)
            sums |= nonzero << g
            cand = (cand & ~sums) >> (g + 1) << (g + 1)
        s._msg = tuple(gens)
    return s._msg


def intersect(s: NumSG, t: NumSG) -> NumSG:
    """Set intersection; always a numerical semigroup."""
    return NumSG(s.key & t.key)


def intersect_all(sgs) -> NumSG:
    """Intersection of a nonempty collection of semigroups."""
    return NumSG(reduce(int.__and__, [s.key for s in sgs]))


def is_subset(s: NumSG, t: NumSG) -> bool:
    return s.key & ~t.key == 0


def _require_subset(s: NumSG, t: NumSG, what=""):
    """Raise NotContained unless s ⊆ t; what goes before s in the message."""
    if not is_subset(s, t):
        raise NotContained("%s%s is not contained in %s"
                           % (what, format_semigroup(s), format_semigroup(t)))


def _require_in(xs, t: NumSG, error=NotContained, what=""):
    """Raise error for the first x of xs not in t; what goes before x."""
    for x in xs:
        if not contains(t, x):
            raise error("%s%d is not in %s" % (what, x, format_semigroup(t)))


def remove_element(s: NumSG, x: int) -> NumSG:
    """s without the minimal generator x; genus grows by exactly 1."""
    if not contains(s, x) or x <= 0:
        raise NotMember("%d is not a positive member of %s" % (x, format_semigroup(s)))
    if x not in msg(s):
        raise NotMinimalGenerator("%d is not a minimal generator of %s"
                                  % (x, format_semigroup(s)))
    return _drop(s, x)


def _drop(s: NumSG, x: int) -> NumSG:
    """remove_element for a minimal generator x of s, unchecked; for callers
    that walk the tree, where x comes from a minimal system of s.

    The child C is s with bit x cleared.  If x is past the Frobenius number
    of s, msg(s) is known and x is not the multiplicity m, msg(C) is msg(s)
    without x, plus x + m unless x + m - h is in C for a generator
    m < h < x.  Only sums through x were lost, so a new generator is x + b
    with b a nonzero member; past x + m it is m plus a member of C, so b = m.
    """
    key = s.key
    child = NumSG(key & ~(1 << x))
    gens = s._msg
    # the x + m rule needs x past the Frobenius number: no gap of s above x
    if gens is not None and x != gens[0] and ~key >> x == 0:
        i = gens.index(x)
        y = x + gens[0]
        ck = child.key
        for h in gens[1:i]:
            if ck >> (y - h) & 1:
                child._msg = gens[:i] + gens[i + 1:]
                break
        else:
            child._msg = gens[:i] + gens[i + 1:] + (y,)
    return child


def add_element(s: NumSG, x: int) -> NumSG:
    """s with the gap x adjoined; errors unless the result is closed."""
    if x < 0:
        raise NotMember("%d is negative" % x)
    if contains(s, x):
        raise AlreadyMember("%d is already in %s" % (x, format_semigroup(s)))
    # s is closed, so only sums involving x can fail: report the least a + x
    # with a a nonzero member, else x + x
    gaps = ~s.key
    escaped = ((s.key & ~1) << x) & gaps or (1 << (x + x)) & gaps
    if escaped:
        v = (escaped & -escaped).bit_length() - 1
        raise NotClosed("%d + %d = %d escapes %s ∪ {%d}"
                        % (v - x, x, v, format_semigroup(s), x))
    return NumSG(s.key | 1 << x)


def union_with_tail(s: NumSG, delta: NumSG, n: int) -> NumSG:
    """s ∪ {x in delta | x >= n} for s ⊆ delta; closed by construction."""
    return NumSG(s.key | delta.key >> n << n)


def restricted_frobenius(s: NumSG, t: NumSG) -> int:
    """max(t \\ s) for s strictly contained in t."""
    _require_subset(s, t)
    if s == t:
        raise EqualSemigroups("restricted Frobenius of a semigroup in itself")
    return (t.key & ~s.key).bit_length() - 1


NATURALS = NumSG(-1)


def parse_semigroup(text: str) -> NumSG:
    """Parse '<5,6,7>' or '5,6,7' as a generator list."""
    raw = text.strip()
    body = raw
    if body.startswith("<") and body.endswith(">"):
        body = body[1:-1]
    elif body.startswith("<") or body.endswith(">"):
        raise ParseError("unbalanced angle brackets in %r" % raw)
    if not body.strip():
        raise ParseError("empty generator list in %r" % raw)
    gens = []
    for tok in body.split(","):
        tok = tok.strip()
        # isdigit would pass '²', which int() refuses
        if not tok.isdecimal():
            raise ParseError("bad generator token %r in %r" % (tok, raw))
        gens.append(int(tok))
    return from_generators(gens)


def format_semigroup(s: NumSG) -> str:
    return "<%s>" % ",".join(map(str, msg(s)))
