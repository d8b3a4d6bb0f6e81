"""Exact arithmetic on numerical semigroups.

A numerical semigroup is a subset of the nonnegative integers that contains 0,
is closed under addition, and has finite complement.  A value is stored as a
bitset: its conductor (the point from which every integer is a member) and an
int whose bit x is set exactly when x is a member below the conductor.  Set
operations are bit operations on these masks, and every result is trimmed to
its least conductor, so equal semigroups have equal (mask, conductor) pairs.
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
    """A numerical semigroup as a bitset.

    mask: int whose bit x is set iff x is a member and x < conductor.
    conductor: frobenius + 1; 0 exactly when the semigroup is all of N.
    Construct via from_generators or the module helpers, not directly.
    """

    __slots__ = ("mask", "conductor", "_msg")

    def __init__(self, mask, conductor):
        self.mask = mask
        self.conductor = conductor
        self._msg = None

    def __eq__(self, other):
        return (isinstance(other, NumSG) and self.mask == other.mask
                and self.conductor == other.conductor)

    def __hash__(self):
        return hash((self.mask, self.conductor))

    def __repr__(self):
        return "NumSG(%s)" % format_semigroup(self)

    @property
    def gaps(self):
        """int whose bit x is set iff x is a gap: a nonnegative integer outside."""
        return ~self.mask & ((1 << self.conductor) - 1)

    @property
    def small(self):
        """Strictly increasing tuple of all members <= conductor."""
        return tuple(_bits(self.mask)) + (self.conductor,) if self.conductor else (0,)

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


def _below(s: NumSG, top) -> int:
    """Mask of the members of s below top."""
    if top <= s.conductor:
        return s.mask & ((1 << top) - 1)
    return s.mask | ((1 << top) - (1 << s.conductor))


def _canon(mask, top) -> NumSG:
    """Build a NumSG from mask = S ∩ [0, top) of a semigroup S ⊇ [top, ∞),
    whose key (see _key) is mask with every bit from top on set."""
    return _from_key(mask | -(1 << top))


def _key(s: NumSG) -> int:
    """s's key, mask - 2**conductor: in two's complement its set bits are
    the members of s, tail included, so key(S ∩ T) = key(S) & key(T).
    _from_key and _intersect_each share this rule."""
    return s.mask - (1 << s.conductor)


def _from_key(x: int) -> NumSG:
    """The semigroup whose key is x (see _key): its highest gap, the
    highest clear bit of x, is one below the bit length of ~x."""
    c = (~x).bit_length()
    return NumSG(x + (1 << c), c)


def _intersect_each(keys, u) -> set:
    """{S ∩ u | key(S) in keys}: one & with u's key each (see _key), and
    _from_key's rule inline on each distinct image, without a call."""
    uk = _key(u)
    return {NumSG(x + (1 << c), c) for x in {k & uk for k in keys}
            for c in [(~x).bit_length()]}


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


def _capped(top, what):
    """Refuse a sieve of top entries for what past MAX_SIEVE, before any work."""
    if top > MAX_SIEVE:
        raise CapacityExceeded("sieve for %s exceeds %d entries" % (what, MAX_SIEVE))


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
    _capped(top, "<%s>" % _listed(gens))
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
    return _canon(reachable, top)


def contains(s: NumSG, x) -> bool:
    return x >= s.conductor or (x >= 0 and s.mask >> x & 1 == 1)


def frobenius(s: NumSG) -> int:
    """Largest integer not in s; -1 when s is all of N."""
    return s.conductor - 1


def genus(s: NumSG) -> int:
    """Number of gaps (nonnegative integers outside s)."""
    return s.conductor - s.mask.bit_count()


def multiplicity(s: NumSG) -> int:
    nonzero = s.mask & ~1
    return (nonzero & -nonzero).bit_length() - 1 if nonzero else s.conductor or 1


def elements(s: NumSG, limit):
    """Yield the members of s that are <= limit, in increasing order."""
    if limit < 0:
        return
    yield from _bits(s.mask & ((1 << (limit + 1)) - 1))
    yield from range(s.conductor, limit + 1)


def msg(s: NumSG) -> tuple:
    """The unique minimal generating set, strictly increasing.

    An element is a minimal generator iff it is not the sum of a smaller
    minimal generator and a nonzero member; all candidates lie in
    (0, conductor + multiplicity], and are taken least first.
    """
    if s._msg is None:
        if s.conductor == 0:
            s._msg = (1,)
        else:
            nonzero = _below(s, s.conductor + multiplicity(s) + 1) & ~1
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
    return _from_key(_key(s) & _key(t))


def intersect_all(sgs) -> NumSG:
    """Intersection of a nonempty collection of semigroups."""
    return _from_key(reduce(int.__and__, map(_key, sgs)))


def is_subset(s: NumSG, t: NumSG) -> bool:
    # the tail [conductor(s), inf) fits in t only if it starts past t's
    if s.conductor < t.conductor:
        return False
    return s.mask & ~t.mask & ((1 << t.conductor) - 1) == 0


def _require_subset(s: NumSG, t: NumSG, what=""):
    """Raise NotContained unless s ⊆ t; what goes before s in the message."""
    if not is_subset(s, t):
        raise NotContained("%s%s is not contained in %s"
                           % (what, format_semigroup(s), format_semigroup(t)))


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

    For x >= conductor the child C is s below x, with conductor x + 1.  If
    msg(s) is known and x is not the multiplicity m, msg(C) is msg(s)
    without x, plus x + m unless x + m - h is in C for a generator
    m < h < x.  Only sums through x were lost, so a new generator is x + b
    with b a nonzero member; past x + m it is m plus a member of C, so b = m.
    """
    if x < s.conductor:
        # the Frobenius number stays a gap, so the conductor stays
        return NumSG(s.mask & ~(1 << x), s.conductor)
    child = NumSG(s.mask | ((1 << x) - (1 << s.conductor)), x + 1)
    gens = s._msg
    if gens is not None and x != gens[0]:
        i = gens.index(x)
        y = x + gens[0]
        mask = child.mask
        for h in gens[1:i]:
            if mask >> (y - h) & 1:
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
    gaps = s.gaps
    escaped = ((s.mask & ~1) << x) & gaps or (1 << (x + x)) & gaps
    if escaped:
        v = (escaped & -escaped).bit_length() - 1
        raise NotClosed("%d + %d = %d escapes %s ∪ {%d}"
                        % (v - x, x, v, format_semigroup(s), x))
    top = max(s.conductor, x + 1)
    return _canon(_below(s, top) | (1 << x), top)


def union_with_tail(s: NumSG, delta: NumSG, n: int) -> NumSG:
    """s ∪ {x in delta | x >= n} for s ⊆ delta; closed by construction."""
    top = max(s.conductor, delta.conductor, n)
    return _canon(_below(s, top) | (_below(delta, top) >> n << n), top)


def restricted_frobenius(s: NumSG, t: NumSG) -> int:
    """max(t \\ s) for s strictly contained in t."""
    _require_subset(s, t)
    if s == t:
        raise EqualSemigroups("restricted Frobenius of a semigroup in itself")
    # every member of t from conductor(s) up is in s, so look below it
    return (_below(t, s.conductor) & ~s.mask).bit_length() - 1


NATURALS = NumSG(0, 0)


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
