"""Variety trees, membership, classification, and genus-level enumeration.

Every family described by a descriptor carries a tree: the root is the
maximum, and the parent of any other member S is S with its restricted
Frobenius number adjoined.  Children of S are obtained by removing the
elements of its minimal system that exceed that number, which is what makes
genus-by-genus enumeration possible without revisiting vertices.
"""

from dataclasses import dataclass, field
from itertools import combinations

from . import chains
from .core import (
    NumSG, DomainError, InvariantError, NATURALS, contains, format_semigroup,
    frobenius, genus, intersect, is_subset, msg, remove_element,
    restricted_frobenius, union_with_tail,
)
from .descriptors import Descendants, delta_of
from .chains import NotInVariety, minimal_rsystem, minimal_system_from_members

DEFAULT_GENUS_BOUND = 40


class InfiniteVariety(DomainError):
    """Enumeration hit the genus bound with members still unexplored."""


@dataclass
class RTreeNode:
    sg: NumSG
    restricted_frob: int
    min_system: frozenset  # None on descendants views left incomplete
    children: list = field(default_factory=list)


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


def _expansion(desc, sg: NumSG) -> list:
    """Removal candidates producing the children of sg, increasing.

    Children under a descendants view coincide with children in the base
    tree, so the base minimal system and base restricted Frobenius drive
    the expansion in every case.
    """
    base = _base_of(desc)
    fd = fdelta(sg, delta_of(base))
    return sorted(x for x in minimal_rsystem(base, sg) if x > fd)


def children(desc, node: RTreeNode, cross_check=False) -> list:
    """One child per minimal-system element above node's restricted Frobenius.

    With cross_check, re-derives the set the slow way: minimal generators
    above the bound whose removal stays in the family.
    """
    out = []
    for x in _expansion(desc, node.sg):
        child = remove_element(node.sg, x)
        out.append(RTreeNode(child, x, minimal_rsystem(_base_of(desc), child)))
    if cross_check:
        alt = [remove_element(node.sg, x)
               for x in sorted(msg(node.sg))
               if x > node.restricted_frob and member(desc, remove_element(node.sg, x))]
        assert [n.sg for n in out] == alt
    return out


def _walk(desc, genus_bound):
    """Expand the tree to the bound.

    Returns (rows, complete) where rows are (sg, parent_index, base_fd) in
    breadth-first order and complete says no expansion was cut off.
    """
    top = delta_of(desc)
    if genus_bound < genus(top):
        raise DomainError("genus bound %d is below the genus %d of the maximum"
                          % (genus_bound, genus(top)))
    rows = [(top, -1, fdelta(top, delta_of(_base_of(desc))))]
    complete = True
    frontier = [0]
    while frontier:
        nxt = []
        for idx in frontier:
            sg = rows[idx][0]
            xs = _expansion(desc, sg)
            if not xs:
                continue
            if genus(sg) >= genus_bound:
                complete = False
                continue
            for x in xs:
                child = remove_element(sg, x)
                nxt.append(len(rows))
                rows.append((child, idx, x))
        frontier = nxt
    return rows, complete


def members_of(desc, genus_bound=DEFAULT_GENUS_BOUND):
    """All members with genus <= bound, plus a flag telling whether that is all of them."""
    rows, complete = _walk(desc, genus_bound)
    return [r[0] for r in rows], complete


def tree_of(desc, genus_bound=DEFAULT_GENUS_BOUND):
    """(root, complete): the family tree rooted at the maximum, cut at the genus bound.

    Under a descendants view the displayed restricted Frobenius is taken in
    the view's own maximum, and minimal systems are exact only when the view
    is finite within the bound (None otherwise).
    """
    rows, complete = _walk(desc, genus_bound)
    if isinstance(desc, Descendants):
        if complete:
            mem = [r[0] for r in rows]
            systems = [minimal_system_from_members(mem, sg) for sg in mem]
        else:
            systems = [None] * len(rows)
        fds = [fdelta(sg, desc.top) for sg, _, _ in rows]
    else:
        systems = [minimal_rsystem(desc, sg) for sg, _, _ in rows]
        fds = [fd for _, _, fd in rows]
    nodes = [RTreeNode(sg, fd, ms)
             for (sg, _, _), fd, ms in zip(rows, fds, systems)]
    for i, (sg, parent, _) in enumerate(rows):
        if parent >= 0:
            nodes[parent].children.append(nodes[i])
    for n in nodes:
        n.children.sort(key=lambda c: c.restricted_frob)
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
    """All members with genus exactly g.

    Level sets are iterated from the maximum: each member of a level is
    expanded through its minimal-system elements above its restricted
    Frobenius number, and iteration stops early once a level comes up empty.
    """
    top = delta_of(desc)
    g0 = genus(top)
    if g < g0:
        return set()
    level = {top}
    for _ in range(g0, g):
        level = {remove_element(sg, x) for sg in level for x in _expansion(desc, sg)}
        if not level:
            return set()
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
    for sg, _, _ in rows[1:]:
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


def restrict_variety(desc, u: NumSG, genus_bound=DEFAULT_GENUS_BOUND) -> set:
    """{S ∩ u | S a member with genus(S) <= bound}, deduplicated.

    When the member walk is complete the result is checked against the three
    family axioms; truncated walks skip the check since boundary members are
    missing.
    """
    mem, complete = members_of(desc, genus_bound)
    out = {intersect(s, u) for s in mem}
    if complete:
        check_rvariety_axioms(out)
    return out


def check_rvariety_axioms(members):
    """Check the three family axioms on an explicit finite member set."""
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
