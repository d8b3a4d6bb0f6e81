"""Variety trees, membership, classification, and genus-level enumeration.

Every family described by a descriptor carries a tree: the root is the
maximum, and the parent of any other member S is S with its restricted
Frobenius number adjoined.  Children of S are obtained by removing the
elements of its minimal system that exceed that number, which is what makes
genus-by-genus enumeration possible without revisiting vertices.
"""

from itertools import combinations

from . import chains
from .core import (
    NumSG, DomainError, InvariantError, NATURALS, _below, _canon, contains,
    _drop, format_semigroup, frobenius, genus, intersect, is_subset,
    restricted_frobenius, union_with_tail,
)
from .descriptors import Descendants, _Record, delta_of
from .chains import NotInVariety

DEFAULT_GENUS_BOUND = 40


class InfiniteVariety(DomainError):
    """Enumeration hit the genus bound with members still unexplored."""


class RTreeNode(_Record):
    __slots__ = ("sg", "restricted_frob", "min_system", "children")

    def __init__(self, sg: NumSG, restricted_frob: int, min_system: frozenset,
                 children=None):
        self.sg = sg
        self.restricted_frob = restricted_frob
        self.min_system = min_system
        self.children = [] if children is None else children


def _base_of(desc):
    return desc.base if isinstance(desc, Descendants) else desc


def member(desc, s: NumSG) -> bool:
    """Whether s belongs to the described family."""
    if isinstance(desc, Descendants):
        if not member(desc.base, s):
            return False
        if s == desc.top:
            return True
        if not is_subset(s, desc.top):
            return False
        # s descends from top iff top is s plus a full upper tail of the maximum
        delta = delta_of(desc.base)
        n = chains._first_missing(desc.top, s)
        return union_with_tail(s, delta, n) == desc.top
    return chains.is_member(desc, s)


def fdelta(s: NumSG, top: NumSG) -> int:
    """Restricted Frobenius number of s in top; -1 for top itself."""
    return -1 if s == top else restricted_frobenius(s, top)


def _base_fdelta(desc, s: NumSG) -> int:
    """Restricted Frobenius number of s in the maximum of desc's base family."""
    return fdelta(s, delta_of(_base_of(desc)))


def _expansion(desc, sg: NumSG, fd: int):
    """(system, xs): the base minimal system of the member sg, and the
    removal candidates producing its children, increasing.

    fd is the restricted Frobenius number of sg in the base maximum.
    Children under a descendants view coincide with children in the base
    tree, so the base minimal system and base restricted Frobenius drive
    the expansion in every case.  Below the root of a walk, fd is the value
    removed from the parent, both in a view and in its base family.
    """
    system = chains._rsystem(_base_of(desc), sg)
    return system, [x for x in system if x > fd]


def _system_in(base_system, cut: int) -> frozenset:
    """The minimal system of a member with this increasing base system in a
    family whose maximum has base restricted Frobenius number cut; see tree_of.

    cut is -1 for a base family, whose systems are the base systems.
    """
    if cut < 0:
        return frozenset(base_system)
    return frozenset(x for x in base_system if x > cut)


def children(desc, node: RTreeNode) -> list:
    """One child per minimal-system element above node's restricted Frobenius."""
    cut = _base_fdelta(desc, delta_of(desc))
    out = []
    for x in _expansion(desc, node.sg, _base_fdelta(desc, node.sg))[1]:
        child = _drop(node.sg, x)
        system = chains._rsystem(_base_of(desc), child)
        out.append(RTreeNode(child, x, _system_in(system, cut)))
    return out


def _walk(desc, genus_bound):
    """Expand the tree to the bound.

    Returns (rows, complete) where rows are (sg, parent_index, fd,
    base_system) in breadth-first order and complete says no expansion was
    cut off.  fd is the restricted Frobenius number in the family's own
    maximum: -1 for the maximum, and for any other member the value x
    removed from its parent, because every value the parent lacks is below x.
    """
    top = delta_of(desc)
    if genus_bound < genus(top):
        raise DomainError("genus bound %d is below the genus %d of the maximum"
                          % (genus_bound, genus(top)))
    # the maximum of a view has a base fd of its own; below it fd is x
    root_fd = _base_fdelta(desc, top)
    rows = []
    complete = True
    frontier = [(top, -1, -1)]
    while frontier:
        nxt = []
        for sg, parent, fd in frontier:
            idx = len(rows)
            system, xs = _expansion(desc, sg, fd if parent >= 0 else root_fd)
            rows.append((sg, parent, fd, system))
            if not xs:
                continue
            if genus(sg) >= genus_bound:
                complete = False
                continue
            nxt.extend((_drop(sg, x), idx, x) for x in xs)
        frontier = nxt
    return rows, complete


def members_of(desc, genus_bound=DEFAULT_GENUS_BOUND):
    """All members with genus <= bound, plus a flag telling whether that is all of them."""
    rows, complete = _walk(desc, genus_bound)
    return [r[0] for r in rows], complete


def tree_of(desc, genus_bound=DEFAULT_GENUS_BOUND):
    """(root, complete): the family tree rooted at the maximum, cut at the genus bound.

    Every node carries its exact minimal system, also when the walk is cut
    off.  Under a descendants view of top T the restricted Frobenius is
    taken in T, and the system of a member S is
    {x in the base system of S : x > F}, where F = fdelta(T, Δ) for the
    base maximum Δ.  Each descendant of T is T with elements above F
    removed, so it keeps T ∩ [0, F]: in the view those elements are forced,
    like the forced set of a restricted family, and only the base system
    elements above F are left to generate S.  Children come in increasing
    restricted Frobenius number, the order in which the walk adds them.
    """
    rows, complete = _walk(desc, genus_bound)
    cut = _base_fdelta(desc, delta_of(desc))
    nodes = [RTreeNode(sg, fd, _system_in(system, cut))
             for sg, _, fd, system in rows]
    for i, (_, parent, _, _) in enumerate(rows):
        if parent >= 0:
            nodes[parent].children.append(nodes[i])
    return nodes[0], complete


def build_tree(desc, genus_bound=DEFAULT_GENUS_BOUND) -> RTreeNode:
    """The root of tree_of(desc, genus_bound)."""
    return tree_of(desc, genus_bound)[0]


def tree_vertices(root: RTreeNode) -> list:
    out = []
    stack = [root]
    while stack:
        n = stack.pop()
        out.append(n)
        stack.extend(reversed(n.children))
    return out


def genus_level(desc, g: int) -> set:
    """All members with genus exactly g."""
    return {sg for sg, _ in _level_pairs(desc, g)}


def _level_pairs(desc, g: int) -> list:
    """(member, fd) for every member with genus exactly g, unordered, where
    fd is the member's restricted Frobenius number in the base maximum.

    Level sets are iterated from the maximum: each member of a level is
    expanded through its minimal-system elements above its restricted
    Frobenius number, and iteration stops early once a level comes up empty.
    Tree children of distinct parents are distinct, so no member repeats.
    """
    top = delta_of(desc)
    g0 = genus(top)
    if g < g0:
        return []
    level = [(top, _base_fdelta(desc, top))]
    for _ in range(g0, g):
        level = [(_drop(sg, x), x) for sg, fd in level
                 for x in _expansion(desc, sg, fd)[1]]
        if not level:
            return []
    return level


def is_pseudo_variety(desc, genus_bound=DEFAULT_GENUS_BOUND) -> bool:
    """Whether every member besides the maximum has its Frobenius number in the maximum.

    A counterexample within the bound is definitive even for infinite
    families.  A maximum of N makes the answer trivially true.  Otherwise an
    incomplete walk raises InfiniteVariety rather than guessing.
    """
    top = delta_of(desc)
    if top == NATURALS:
        return True
    rows, complete = _walk(desc, genus_bound)
    for sg, _, _, _ in rows[1:]:
        if not contains(top, frobenius(sg)):
            return False
    if not complete:
        raise InfiniteVariety("no counterexample up to genus %d, but members remain"
                              % genus_bound)
    return True


def descendants(desc, t: NumSG) -> Descendants:
    """View of desc keeping only t and the members below it in the tree.

    The view is itself a valid descriptor with maximum t; enumerating it
    takes its own genus bound.
    """
    if not member(desc, t):
        raise NotInVariety("%s is not a member" % format_semigroup(t))
    base = _base_of(desc)
    return Descendants(base, t)


def restriction_of(desc, u: NumSG, genus_bound=DEFAULT_GENUS_BOUND):
    """(image, complete): {S ∩ u | S a member with genus(S) <= bound},
    deduplicated, and whether the member walk was complete.

    A complete image is a family again, so it is not re-checked.  Its
    maximum is Δ ∩ u, and (S₁ ∩ u) ∩ (S₂ ∩ u) = (S₁ ∩ S₂) ∩ u.  For
    F = max((Δ ∩ u) ∖ S), adjoining restricted Frobenius numbers walks down
    Δ ∖ S, and every value above F is outside u, so the chain reaches a
    member S′ with S′ ∩ u = S ∩ u; then (S′ ∪ {F}) ∩ u = (S ∩ u) ∪ {F}.
    """
    mem, complete = members_of(desc, genus_bound)
    w = max(u.conductor, *(s.conductor for s in mem))
    um = _below(u, w)
    return {_canon(m, w) for m in {_below(s, w) & um for s in mem}}, complete


def restrict_variety(desc, u: NumSG, genus_bound=DEFAULT_GENUS_BOUND) -> set:
    """The image of restriction_of(desc, u, genus_bound)."""
    return restriction_of(desc, u, genus_bound)[0]


def check_rvariety_axioms(members):
    """The three family axioms on an explicit finite member set, one NumSG
    operation per member or pair.

    No computation calls it: the tests check walks, views and restriction
    images with it.  Members are visited in the order of set(members).
    """
    members = set(members)
    if not members:
        raise InvariantError("empty family")
    # a maximum contains every other member, so it alone has the least genus
    top = min(members, key=genus)
    if not all(is_subset(s, top) for s in members):
        raise InvariantError("no maximum element")
    for a, b in combinations(members, 2):
        if intersect(a, b) not in members:
            raise InvariantError("intersection escapes: %s ∩ %s"
                                 % (format_semigroup(a), format_semigroup(b)))
    for s in members:
        if s != top:
            f = restricted_frobenius(s, top)
            if union_with_tail(s, top, f) not in members:
                raise InvariantError("adjoining %d to %s escapes"
                                     % (f, format_semigroup(s)))
