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
    NumSG, DomainError, _capped, _drop, _intersect_each, frobenius,
    genus, restricted_frobenius,
)
from .descriptors import _Record, _set, delta_of

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

    # equality and repr hold pending nodes in a list, not on the call stack
    # (see tree_vertices and _written), so a tree of any depth has them
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _shape(self) == _shape(other)

    def __repr__(self):
        return _written(self, lambda n: (
            "%s(sg=%r, restricted_frob=%r, min_system=%r, children=["
            % (type(n).__qualname__, n.sg, n.restricted_frob, n.min_system)),
            lambda n: "])")


# A descendants view is a Restricted or Generated descriptor (see
# descendants), so membership is chains.is_member itself.
member = chains.is_member


def fdelta(s: NumSG, top: NumSG) -> int:
    """Restricted Frobenius number of s in top; -1 for top itself."""
    return -1 if s == top else restricted_frobenius(s, top)


def _next_level(system, level, counts):
    """The next level below a level of (member, fd, system) triples, whose
    child counts are counts: each member without each of the last k values
    of its system, k its count, in increasing order, as the triple (child,
    value removed, system(child))."""
    return [(c := _drop(sg, x), x, system(c))
            for (sg, _, xs), k in zip(level, counts) for x in xs[len(xs) - k:]]


def children(desc, node: RTreeNode) -> list:
    """One child per minimal-system element above node's restricted Frobenius."""
    xs, fd = node.min_system, node.restricted_frob
    return [RTreeNode(*c) for c in _next_level(
        chains._systems(desc)[1], [(node.sg, fd, xs)], [len(xs) - bisect_right(xs, fd)])]


def _bounded_top(desc, genus_bound) -> NumSG:
    """The maximum of desc; a DomainError if its genus exceeds the bound."""
    top = delta_of(desc)
    if genus_bound < genus(top):
        raise DomainError("genus bound %d is below the genus %d of the maximum"
                          % (genus_bound, genus(top)))
    return top


def _levels(desc, g):
    """Yield the levels of desc's tree from its maximum to genus g, or to
    the first empty one, each with its members' child counts: a level is
    a list of (member, fd, system) triples, where fd is the member's
    restricted Frobenius number in the maximum, -1 for the maximum itself,
    and system its minimal system from the family's kernel, chosen once
    per walk; a child count is the number of the system's values above
    fd.  A member's children are consecutive in the next level (see
    _next_level), and no child repeats.  When the next level would take
    the walk past MAX_MEMBERS members, core._capped refuses it before it
    is built.
    """
    top = _bounded_top(desc, g)
    system = chains._systems(desc)[1]
    level, made = [(top, -1, system(top))], 1
    for depth in range(genus(top), g + 1):
        counts = [len(xs) - bisect_right(xs, fd) for _, fd, xs in level]
        yield level, counts
        if depth == g or not level:
            return
        made += sum(counts)
        _capped(made, MAX_MEMBERS, "walk", "members")
        level = _next_level(system, level, counts)


def _walk(desc, genus_bound):
    """(nodes, complete) for tree_of: a new RTreeNode per member of the
    walk that desc keeps (see _walked), in its order, each parent linked
    to its children, and whether no expansion was cut off.  A parent's
    children are as many nodes as its child count, next after those of
    the parents before it, since each level lists its parents' children
    in their order; the last level's are past the end.
    """
    mem, fds, systems, counts, complete = _walked(desc, genus_bound)
    nodes = [RTreeNode(m, fd, xs) for m, fd, xs in zip(mem, fds, systems)]
    i, n = 1, len(nodes)
    for p, k in zip(nodes, counts):
        if i == n:
            break
        p.children = nodes[i:i + k]
        i += k
    return nodes, complete


def members_of(desc, genus_bound=DEFAULT_GENUS_BOUND):
    """All members with genus <= bound, level by level in breadth-first
    order, as a new list, plus a flag telling whether that is all of them."""
    mem, _, _, _, complete = _walked(desc, genus_bound)
    return list(mem), complete


def _walked(desc, genus_bound):
    """(members, fds, systems, counts, complete): the triples of _levels
    in its order as three parallel tuples, the child counts it gives as a
    fourth, and whether the walk is complete, that is whether no member
    of its last level has children.  desc keeps its last walk with its
    bound before these fields and an empty member map after them, which
    chains._position fills with each member's key and position and reads;
    a walk at that bound reuses it, a walk at another bound replaces it,
    map and all, and a refused walk replaces nothing.  A descendants view
    may be born with a walk cut from its family's (see _cut).
    """
    walked = getattr(desc, "_walked", None)
    if walked is None or walked[0] != genus_bound:
        mem, fds, systems, counts = [], [], [], []
        for level, below in _levels(desc, genus_bound):
            # zip(*level) is the level's members, fds and systems
            for kept, part in zip((mem, fds, systems), zip(*level)):
                kept += part
            counts += below
        walked = (genus_bound, tuple(mem), tuple(fds), tuple(systems),
                  tuple(counts), not any(below), {})
        _set(desc, "_walked", walked)
    return walked[1:6]


def _cut(walked, i):
    """The walk kept by the view of the member at position i > 0 of
    walked, its family's kept walk: that member's subtree, with a new
    empty member map.

    A node's children follow those of the nodes before it, so they start
    one past the sum of the counts before it.  Each level of the subtree
    is then one range a:b of the walk, and the children of that range
    are the next, which starts at lo.  Below its root the fds and counts
    stay, and the systems keep their elements above the root's fd, which
    becomes -1 (the README gives the proofs).  The loop runs while its
    range lies in the walk; the subtree is complete when it ends on an
    empty range, a range with no children.
    """
    bound, mem, fds, systems, counts, _, _ = walked
    cut = _, sub_fds, sub_systems, _ = [], [], [], []
    a, b, lo = i, i + 1, 1 + sum(counts[:i])
    while a < b <= len(mem):
        for kept, part in zip(cut, (mem, fds, systems, counts)):
            kept += part[a:b]
        hi = lo + sum(counts[a:b])
        a, b, lo = lo, hi, hi + sum(counts[b:lo])
    f, sub_fds[0] = sub_fds[0], -1
    sub_systems[:] = [xs[bisect_right(xs, f):] for xs in sub_systems]
    return (bound, *map(tuple, cut), a == b, {})


def tree_of(desc, genus_bound=DEFAULT_GENUS_BOUND):
    """(root, complete): the family tree rooted at the maximum, cut at the genus bound.

    Every node carries its exact minimal system, as a strictly increasing
    tuple, also when the walk is cut off.  Children come in increasing
    restricted Frobenius number, the order in which the walk adds them.
    """
    nodes, complete = _walk(desc, genus_bound)
    return nodes[0], complete


def build_tree(desc, genus_bound=DEFAULT_GENUS_BOUND) -> RTreeNode:
    """The root of tree_of(desc, genus_bound)."""
    return tree_of(desc, genus_bound)[0]


def _shape(root):
    """Each node of root's tree in tree_vertices order, as its class and
    fields with its child count: equal shapes are equal trees."""
    return [(n.__class__, n.sg, n.restricted_frob, n.min_system, len(n.children))
            for n in tree_vertices(root)]


def tree_vertices(root: RTreeNode) -> list:
    out, stack = [], [root]
    while stack:
        n = stack.pop()
        out.append(n)
        stack.extend(reversed(n.children))
    return out


def _written(root, head, tail) -> str:
    """root's tree as one string: for each node n, head(n), then its
    children written so and joined by ", ", then tail(n).  Pending parts
    wait in a list, not on the call stack, so a tree of any depth is
    written; tail(n) is taken when n is popped, before its children."""
    out, stack = [], [root]
    while stack:
        n = stack.pop()
        if isinstance(n, str):
            out.append(n)
            continue
        out.append(head(n))
        stack.append(tail(n))
        for j, c in enumerate(reversed(n.children)):
            if j:
                stack.append(", ")
            stack.append(c)
    return "".join(out)


def genus_level(desc, g: int) -> set:
    """All members with genus exactly g."""
    return {sg for sg, _, _ in _last_level(desc, g)}


def _last_level(desc, g: int) -> list:
    """Level g of _levels, holding one level at a time; [] below the maximum."""
    level = []
    if g >= genus(delta_of(desc)):
        for level, _ in _levels(desc, g):
            pass
    return level


def is_pseudo_variety(desc) -> bool:
    """Whether every member besides the maximum has its Frobenius number in
    the maximum; read off the maximum's own system, without a walk.

    For the maximum Δ with system B, the answer is: B is empty or
    min(B) > F(Δ).  A member S ⊆ Δ has F(S) >= F(Δ), and every integer
    past F(Δ) is in Δ, so a counterexample S has F(S) = F(Δ) and contains
    every integer past it.  Its chain up to Δ then adjoins only values
    below F(Δ), every link of it is a member, and its last link below Δ is
    Δ ∖ {r} with r = min(Δ ∖ S) < F(Δ): a tree child of Δ, so r is in B.
    Conversely, for r in B with r < F(Δ) the child Δ ∖ {r} has Frobenius
    number F(Δ), outside Δ.  Δ = N has F(Δ) = -1, so the answer is True.
    """
    top = delta_of(desc)
    b = chains._systems(desc)[1](top)
    return not b or b[0] > frobenius(top)


def descendants(desc, t: NumSG):
    """The family of t and the members below it in desc's tree: a
    descriptor of desc's kind with maximum t, written by desc's kernel
    (see chains._systems), desc itself for desc's maximum.  The README
    gives the proofs.  When desc keeps a walk that holds t, the view
    keeps t's subtree of it (see _cut), so its walks at that bound
    neither walk again nor build its kernel.
    """
    i = chains._position(desc, t)
    if i is None:
        chains._checked(desc, t)
    delta = delta_of(desc)
    if t == delta:
        return desc
    view = chains._systems(desc)[3](t, restricted_frobenius(t, delta))
    if i is not None:
        _set(view, "_walked", _cut(desc._walked, i))
    return view


def restriction_of(desc, u: NumSG, genus_bound=DEFAULT_GENUS_BOUND):
    """(image, complete): {S ∩ u | S a member with genus(S) <= bound},
    deduplicated, and whether the member walk was complete.  A complete
    image is a family again (the README gives the proof), so it is not
    re-checked.  core._intersect_each makes it from the walk's members.
    """
    mem, _, _, _, complete = _walked(desc, genus_bound)
    return _intersect_each(mem, u), complete


def restrict_variety(desc, u: NumSG, genus_bound=DEFAULT_GENUS_BOUND) -> set:
    """The image of restriction_of(desc, u, genus_bound)."""
    return restriction_of(desc, u, genus_bound)[0]
