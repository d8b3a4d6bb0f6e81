"""Closure operators for the two shifted-addition families.

A semigroup is in the "ld" family when a + b - 1 stays inside for all
nonzero members a, b, and in the "pl" family when a + b + 1 does.  Both
families are intersection-closed and contain N, so every set of positive
integers has a smallest family member containing it: its closure.
"""

from .core import (
    NumSG, DomainError, CapacityExceeded, NotClosed, NotContained, _below,
    _bits, _canon, _valid_generators, contains, elements, format_semigroup,
    intersect, multiplicity,
)

LD = "ld"
PL = "pl"
KINDS = (LD, PL)
_OFFSETS = {LD: -1, PL: 1}

# A sweep over n entries costs about n**2 / 64 word operations, so wider
# windows are refused: ("pl", [256]) needs 130,560 entries, ("pl", [257]) 131,584.
MAX_WINDOW = 1 << 17


def _offset(kind):
    try:
        return _OFFSETS[kind]
    except KeyError:
        raise DomainError("unknown closure kind %r (expected one of %s)"
                          % (kind, "/".join(KINDS))) from None


def _window(top):
    if top > MAX_WINDOW:
        raise CapacityExceeded("closure window of %d entries exceeds %d"
                               % (top, MAX_WINDOW))
    return top


def _sweep(off, seeds, top):
    """Nonzero members below top, and the needed ones, of the closure of seeds.

    seeds increase, and the closure holds every integer from top up.  x is a
    member when it is a seed or its sums bit is set, and needed when that bit
    is clear; sums with x as the larger summand exceed x, so taking x least
    first is exact.  After a run of g = seeds[0] members every integer is g
    plus a member, so the sweep stops there.
    """
    g, seed = seeds[0], set(seeds)
    members = sums = run = 0
    needed = []
    for x in range(g, top):
        if not sums >> x & 1:
            if x not in seed:
                run = 0
                continue
            needed.append(x)
        run += 1
        members |= 1 << x
        if run == g:
            return members | ((1 << top) - (2 << x)), needed
        sums |= members << x | members << (x + off)
    return members, needed


def variety_closure(kind, gens) -> NumSG:
    """Smallest semigroup of the given kind containing gens.

    The closure contains g = min(gens) and g + g + offset, so its conductor
    is at most that of <g, 2g + offset>, (g - 1)(2g + offset - 1)
    (Sylvester): one sweep below it is exact.  g = 1 gives 0 and N.
    """
    off = _offset(kind)
    gens = _valid_generators(gens)
    top = _window((gens[0] - 1) * (2 * gens[0] + off - 1))
    return _canon(_sweep(off, gens, top)[0] | 1, top)


def _kind_defect(off, s: NumSG):
    """A nonzero pair (a, b) of members with a + b + off outside s, for an
    s that is not closed under the kind; it words the NotClosed error.

    Pairs of small elements suffice: any sum involving the tail lands at or
    past the conductor.
    """
    gaps = s.gaps
    nonzero = s.mask & ~1
    for a in elements(s, s.conductor):
        if a:
            # a + b + offset over the members b in (0, a], on the gaps of s
            hit = ((nonzero & ((2 << a) - 1)) << (a + off)) & gaps
            if hit:
                return (a, (hit & -hit).bit_length() - 1 - a - off)


def restricted_closure(kind, a, t: NumSG) -> NumSG:
    """Smallest semigroup of the kind that contains a and sits inside t.

    Equals the unrestricted closure intersected with t, which requires
    a ⊆ t to begin with.
    """
    for x in a:
        if not contains(t, x):
            raise NotContained("%d is not in %s" % (x, format_semigroup(t)))
    return intersect(variety_closure(kind, a), t)


def minimal_vsystem(kind, m: NumSG) -> frozenset:
    """Least set of positive integers whose closure of the kind is m.

    The sweep over the nonzero members of m below the window derives the
    closure of them, which is m exactly when m is closed; _kind_defect then
    only words the error.  For a closed m a member x is needed exactly when
    it is neither a + b nor a + b + offset for nonzero members a, b < x:
    the needed values of the sweep.  Past conductor + multiplicity every
    member is a sum, as in msg.
    """
    off = _offset(kind)
    top = _window(m.conductor + multiplicity(m) + 1)
    nonzero = _below(m, top) & ~1
    members, needed = _sweep(off, _bits(nonzero), top)
    if members != nonzero:
        a, b = _kind_defect(off, m)
        raise NotClosed("%d + %d %s 1 = %d escapes %s"
                        % (a, b, "-" if off < 0 else "+", a + b + off,
                           format_semigroup(m)))
    return frozenset(needed)
