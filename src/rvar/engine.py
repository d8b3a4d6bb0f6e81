"""Variety trees, membership, classification, and genus-level enumeration.

Every family described by a descriptor carries a tree: the root is the
maximum, and the parent of any other member S is S with its restricted
Frobenius number adjoined.  Children of S are obtained by removing the
elements of its minimal system that exceed that number, which is what makes
genus-by-genus enumeration possible without revisiting vertices.
"""

from bisect import bisect_right

from . import chains
from .core import (
    NumSG, CapacityExceeded, DomainError, _below, _canon, _drop,
    format_semigroup, frobenius, genus, is_subset, restricted_frobenius,
    union_with_tail,
)
from .descriptors import Descendants, _Record, _set, delta_of
from .chains import NotInVariety

DEFAULT_GENUS_BOUND = 40

# Walks refuse to hold more than this many members, so a family too large
# for its genus bound fails loudly instead of exhausting memory.
MAX_MEMBERS = 250_000


class RTreeNode(_Record):
    """A member of a family tree: sg, its restricted Frobenius number in the
    family's maximum, its minimal system as a strictly increasing tuple, and
    its children in increasing restricted Frobenius number."""

    __slots__ = ("sg", "restricted_frob", "min_system", "children")

    def __init__(self, sg: NumSG, restricted_frob: int, min_system: tuple,
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


def _above(xs, v):
    """The elements of the increasing sequence xs that exceed v."""
    return xs[bisect_right(xs, v):]


def _kernel(desc):
    """(system, cut) for walking desc: the system kernel of its base family,
    chosen once per walk, and the restricted Frobenius number of its maximum
    in the base maximum, -1 for a base family."""
    return chains._systems(_base_of(desc)), _base_fdelta(desc, delta_of(desc))


def _node(system, sg: NumSG, fd: int, cut: int) -> RTreeNode:
    """The tree node of the member sg: fd is its restricted Frobenius number
    in the family's own maximum, and its system the kernel's values above
    cut, that maximum's number in the base maximum (see tree_of)."""
    xs = system(sg)
    return RTreeNode(sg, fd, xs if cut < 0 else _above(xs, cut))


def children(desc, node: RTreeNode) -> list:
    """One child per minimal-system element above node's restricted Frobenius."""
    system, cut = _kernel(desc)
    return [_node(system, _drop(node.sg, x), x, cut)
            for x in _above(node.min_system, node.restricted_frob)]


def _over_budget():
    return CapacityExceeded("walk exceeds %d members" % MAX_MEMBERS)


def _bounded_top(desc, genus_bound) -> NumSG:
    """The maximum of desc; a DomainError if its genus exceeds the bound."""
    top = delta_of(desc)
    if genus_bound < genus(top):
        raise DomainError("genus bound %d is below the genus %d of the maximum"
                          % (genus_bound, genus(top)))
    return top


def _walk(desc, genus_bound):
    """(nodes, complete) for tree_of: one RTreeNode per member with genus
    <= bound, in the order of _levels and linked to its children, and
    whether no expansion was cut off.  A node's restricted Frobenius number
    in the family's own maximum is -1 for the maximum, else the value x
    removed from its parent, which exceeds the cut.  Past MAX_MEMBERS nodes
    it raises CapacityExceeded.
    """
    top = _bounded_top(desc, genus_bound)
    system, cut = _kernel(desc)
    nodes, start = [_node(system, top, -1, cut)], 0
    for _ in range(genus(top), genus_bound):  # nodes[start:] is one genus level
        level, start = nodes[start:], len(nodes)
        if not level:
            break
        for n in level:
            n.children = [_node(system, _drop(n.sg, x), x, cut)
                          for x in _above(n.min_system, n.restricted_frob)]
            nodes += n.children
            if len(nodes) > MAX_MEMBERS:
                raise _over_budget()
    return nodes, not any(_above(n.min_system, n.restricted_frob)
                          for n in nodes[start:])


def members_of(desc, genus_bound=DEFAULT_GENUS_BOUND):
    """All members with genus <= bound, level by level in breadth-first
    order, as a new list, plus a flag telling whether that is all of them."""
    mem, complete = _members(desc, genus_bound)
    return list(mem), complete


def _members(desc, genus_bound):
    """members_of with a tuple of members; desc keeps its last walk as
    (bound, members, complete), and a walk at that bound reuses it."""
    walked = getattr(desc, "_walked", None)
    if walked is None or walked[0] != genus_bound:
        system = chains._systems(_base_of(desc))
        mem = []
        for level in _levels(desc, system, genus_bound):
            mem += [sg for sg, _ in level]
        walked = (genus_bound, tuple(mem),
                  not any(_above(system(sg), fd) for sg, fd in level))
        _set(desc, "_walked", walked)
    return walked[1:]


def tree_of(desc, genus_bound=DEFAULT_GENUS_BOUND):
    """(root, complete): the family tree rooted at the maximum, cut at the genus bound.

    Every node carries its exact minimal system, as a strictly increasing
    tuple, also when the walk is cut off.  Under a descendants view of top
    T the restricted Frobenius is taken in T, and the system of a member S
    is {x in the base system of S : x > F}, where F = fdelta(T, Δ) for the
    base maximum Δ.  Each descendant of T is T with elements above F
    removed, so it keeps T ∩ [0, F]: in the view those elements are forced,
    like the forced set of a restricted family, and only the base system
    elements above F are left to generate S.  Children come in increasing
    restricted Frobenius number, the order in which the walk adds them.
    """
    nodes, complete = _walk(desc, genus_bound)
    return nodes[0], complete


def build_tree(desc, genus_bound=DEFAULT_GENUS_BOUND) -> RTreeNode:
    """The root of tree_of(desc, genus_bound)."""
    return tree_of(desc, genus_bound)[0]


def tree_vertices(root: RTreeNode) -> list:
    out, stack = [], [root]
    while stack:
        n = stack.pop()
        out.append(n)
        stack.extend(reversed(n.children))
    return out


def genus_level(desc, g: int) -> set:
    """All members with genus exactly g."""
    return {sg for sg, _ in _level_pairs(desc, g)}


def _levels(desc, system, g):
    """Yield the levels of desc's tree from its maximum to genus g, or to
    the first empty one, as lists of (member, fd), fd the member's restricted
    Frobenius number in the base maximum: a member without each value of
    system(member) above fd, in increasing order, gives its children, and
    no child repeats.  Past MAX_MEMBERS members it raises CapacityExceeded.
    """
    top = _bounded_top(desc, g)
    level, made = [(top, _base_fdelta(desc, top))], 1
    for _ in range(genus(top), g):
        yield level
        level = [(_drop(sg, x), x) for sg, fd in level
                 for x in _above(system(sg), fd)]
        if not level:
            break
        made += len(level)
        if made > MAX_MEMBERS:
            raise _over_budget()
    yield level


def _level_pairs(desc, g: int) -> list:
    """Level g of _levels, holding one level at a time; [] below the maximum."""
    level = []
    if g >= genus(delta_of(desc)):
        for level in _levels(desc, chains._systems(_base_of(desc)), g):
            pass
    return level


def is_pseudo_variety(desc) -> bool:
    """Whether every member besides the maximum has its Frobenius number in
    the maximum; read off the maximum's own tree node, without a walk.

    For the maximum Δ with system B (the base system above the view's cut,
    as tree_of takes it), the answer is: B is empty or min(B) > F(Δ).  A
    member S ⊆ Δ has F(S) >= F(Δ), and every integer past F(Δ) is in Δ, so
    a counterexample S has F(S) = F(Δ) and contains every integer past it.
    Its chain up to Δ then adjoins only values below F(Δ), every link of it
    is a member, and its last link below Δ is Δ ∖ {r} with
    r = min(Δ ∖ S) < F(Δ): a tree child of Δ, so r is in B.  Conversely,
    for r in B with r < F(Δ) the child Δ ∖ {r} has Frobenius number F(Δ),
    outside Δ.  Δ = N has F(Δ) = -1, so the answer is True.
    """
    top = delta_of(desc)
    system, cut = _kernel(desc)
    b = _node(system, top, -1, cut).min_system
    return not b or b[0] > frobenius(top)


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
    deduplicated, and whether the member walk was complete.  A complete
    image is a family again (the README gives the proof), so it is not
    re-checked.  S's mask with its tail of ones, cut by u's mask below the
    largest conductor w, is S ∩ u below w.
    """
    mem, complete = _members(desc, genus_bound)
    w = max(u.conductor, *(s.conductor for s in mem))
    um = _below(u, w)
    return {_canon(m, w) for m in {(s.mask | -(1 << s.conductor)) & um
                                   for s in mem}}, complete


def restrict_variety(desc, u: NumSG, genus_bound=DEFAULT_GENUS_BOUND) -> set:
    """The image of restriction_of(desc, u, genus_bound)."""
    return restriction_of(desc, u, genus_bound)[0]
