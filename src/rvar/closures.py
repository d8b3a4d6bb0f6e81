"""Closure operators for the two shifted-addition families.

A semigroup is in the "ld" family when a + b - 1 stays inside for all
nonzero members a, b, and in the "pl" family when a + b + 1 does.  Both
families are intersection-closed and contain N, so every set of positive
integers has a smallest family member containing it: its closure, read off
its Apéry set.  A minimal system of the kind is read off msg.
"""

from . import core
from .core import (
    NumSG, DomainError, NotClosed, _capped, _listed, _require_in, _sieve,
    _valid_generators, format_semigroup, intersect, msg,
)

LD = "ld"
PL = "pl"
KINDS = (LD, PL)
_OFFSETS = {LD: -1, PL: 1}


def _offset(kind):
    try:
        return _OFFSETS[kind]
    except KeyError:
        raise DomainError("unknown closure kind %r (expected one of %s)"
                          % (kind, "/".join(KINDS))) from None


def variety_closure(kind, gens) -> NumSG:
    """Smallest semigroup of the given kind containing gens.

    Read off its Apéry set for g = min(gens), the least member of each class
    mod g, settled least first (Nijenhuis 1979).  Such a member, unless a
    generator, is v + s + e with e in {0, offset} and v, s nonzero members
    below it; and v, s are g or Apéry elements, else w + w' + e, g + w' + e or
    2g + e, for w, w' the Apéry elements of their classes, would be a smaller
    member of its class.  So each settled value, g first, is summed with every
    value settled so far, itself included.  The conductor is max(Apéry) - g + 1
    (Selmer), at most that of <g, 2g + offset> (Sylvester): capped up front.
    """
    off = _offset(kind)
    gens = _valid_generators(gens)
    g = gens[0]
    bound = (g - 1) * (2 * g + off - 1)
    _capped(bound, core.MAX_SIEVE,
            "sieve for the %s closure of %s" % (kind, _listed(gens)), "entries")
    # best: the least value found so far in each unsettled class; least: the
    # same in every class, bound + g (above every Apéry element) when none is.
    # g settles first, standing in for 0 in its class
    best, steps = {x % g: x for x in reversed(gens)}, []
    least = [best.get(r, bound + g) for r in range(g)]
    while best:
        v = best.pop(min(best, key=best.get))
        steps.append(v)
        # every sum exceeds v, so no settled class takes a new value
        for x in [v + s + e for e in (0, off) for s in steps]:
            if x < least[x % g]:
                least[x % g] = best[x % g] = x
    # Apéry elements plus multiples of g; bits past the conductor join the tail
    apery = bytearray(v // 8 + 1)
    for w in steps:
        apery[w >> 3] |= 1 << (w & 7)
    return _sieve(int.from_bytes(apery, "little") | 1, [g], v - g + 1)


def restricted_closure(kind, a, t: NumSG) -> NumSG:
    """Smallest semigroup of the kind that contains a and sits inside t.

    Equals the unrestricted closure intersected with t, which requires
    a ⊆ t to begin with.
    """
    a = list(a)  # read once: a may be an iterator
    _require_in(a, t)
    return intersect(variety_closure(kind, a), t)


def minimal_vsystem(kind, m: NumSG) -> frozenset:
    """Least set of positive integers whose closure of the kind is m.

    m is closed exactly when x + y + offset is in m for x, y in msg(m), since
    a + b + offset = (x + y + offset) + a' + b' for a = x + a', b = y + b'.
    So the least escaping sum v is x + y + offset for some x <= y in msg(m),
    and the error names it as b + x, x the largest generator of m not above
    its member partner b.  A member is needed exactly when it is no a + b or
    a + b + offset of nonzero members a, b below it: a member of msg(m) that
    is no x + b + offset, x in msg(m) and b a nonzero member other than 1
    (for ld on N, 1 + 1 - 1 is 1 itself).  The same sums take every y in
    msg(m) as b, so they decide closedness and find v.
    """
    off = _offset(kind)
    gens = msg(m)
    nonzero = m.key & ((2 << gens[-1]) - 1) & ~3  # the b above 1
    sums = 0
    for x in gens:
        sums |= nonzero << (x + off)
    bad = sums & m.gaps
    if bad:
        v = (bad & -bad).bit_length() - 1
        x = max(x for x in gens if 2 * x + off <= v and nonzero >> (v - off - x) & 1)
        raise NotClosed("%d + %d %s 1 = %d escapes %s"
                        % (v - off - x, x, "-+"[off > 0], v, format_semigroup(m)))
    return frozenset(x for x in gens if not sums >> x & 1)
