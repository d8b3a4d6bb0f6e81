"""Closure operators for the two shifted-addition families.

A semigroup is in the "ld" family when a + b - 1 stays inside for all
nonzero members a, b, and in the "pl" family when a + b + 1 does.  Both
families are intersection-closed and contain N, so every set of positive
integers has a smallest family member containing it: its closure.
"""

from .core import (
    NumSG, DomainError, EmptyGenerators, InvalidGenerator, CapacityExceeded,
    InvariantError, NotClosed, NotContained, MAX_SIEVE, NATURALS, _below,
    _bits, _canon, contains, elements, format_semigroup, intersect, msg,
)

LD = "ld"
PL = "pl"
KINDS = (LD, PL)
_OFFSETS = {LD: -1, PL: 1}


class NotCofinite(DomainError):
    """The closure never settles into a full tail of integers."""


def _offset(kind):
    try:
        return _OFFSETS[kind]
    except KeyError:
        raise DomainError("unknown closure kind %r (expected one of %s)"
                          % (kind, "/".join(KINDS))) from None


def variety_closure(kind, gens) -> NumSG:
    """Smallest semigroup of the given kind containing gens.

    Saturates membership over a window [0, B]: any element is derivable
    from strictly smaller ones, so one increasing sweep per window is
    exact.  The window doubles until the closure shows a tail that is
    certified complete (conductor c with 2c <= B).
    """
    off = _offset(kind)
    gens = list(gens)
    if not gens:
        raise EmptyGenerators("no generators given")
    for g in gens:
        if not isinstance(g, int) or g < 1:
            raise InvalidGenerator("generator %r is not a positive integer" % (g,))
    gens = sorted(set(gens))
    if gens[0] == 1:
        return NATURALS
    bound = 2 * gens[-1] ** 2
    for _ in range(4):
        if bound > MAX_SIEVE:
            raise CapacityExceeded("closure window for {%s} exceeds %d entries"
                                   % (",".join(map(str, gens)), MAX_SIEVE))
        present = bytearray(bound + 1)
        present[0] = 1
        seed = set(gens)
        nonzero = []
        for y in range(1, bound + 1):
            ok = y in seed
            if not ok:
                for a in nonzero:
                    b = y - a
                    if b >= 1 and present[b]:
                        ok = True
                        break
                    b = y - a - off
                    # b == y is the useless self-derivation; present[y] is
                    # still 0 here so the test rejects it on its own
                    if b >= 1 and present[b]:
                        ok = True
                        break
            if ok:
                present[y] = 1
                nonzero.append(y)
        c = bound + 1
        while c > 0 and present[c - 1]:
            c -= 1
        if 2 * c <= bound:
            out = _canon(sum(1 << i for i in range(c) if present[i]), c)
            _assert_kind_closed(kind, out)
            return out
        bound *= 2
    raise NotCofinite("closure of {%s} under %s shows no stable tail"
                      % (",".join(map(str, gens)), kind))


def _kind_defect(kind, s: NumSG):
    """A nonzero pair (a, b) of members with a + b + offset outside s, if any.

    Pairs of small elements suffice: any sum involving the tail lands at or
    past the conductor.
    """
    off = _offset(kind)
    gaps = s.gaps
    nonzero = s.mask & ~1
    for a in elements(s, s.conductor):
        if a:
            # a + b + offset over the members b in (0, a], on the gaps of s
            hit = ((nonzero & ((2 << a) - 1)) << (a + off)) & gaps
            if hit:
                return (a, (hit & -hit).bit_length() - 1 - a - off)
    return None


def _assert_kind_closed(kind, s: NumSG):
    bad = _kind_defect(kind, s)
    if bad is not None:
        raise InvariantError("closure %s escapes its own kind at %s"
                             % (format_semigroup(s), bad))


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

    m must be closed under the kind.  Then the closure of the nonzero
    members of m below x agrees with m below x, so a member x is needed
    exactly when it is neither a + b nor a + b + offset for nonzero members
    a, b < x.  Members past max(msg(m)) are sums of two nonzero members, so
    the candidates stop there; they are taken least first, as in msg.
    """
    bad = _kind_defect(kind, m)
    off = _offset(kind)
    if bad is not None:
        raise NotClosed("%d + %d %s 1 = %d escapes %s"
                        % (bad[0], bad[1], "-" if off < 0 else "+",
                           bad[0] + bad[1] + off, format_semigroup(m)))
    nonzero = _below(m, max(msg(m)) + 1) & ~1
    out, sums = [], 0
    for x in _bits(nonzero):
        if not sums >> x & 1:
            out.append(x)
        # sums with x as the larger summand; the next candidates exceed x
        upto = nonzero & ((2 << x) - 1)
        sums |= upto << x | upto << (x + off)
    return frozenset(out)
