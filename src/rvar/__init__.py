"""Exact arithmetic for numerical semigroups and their restricted families.

The library models intersection-closed families of numerical semigroups
that sit below a fixed maximum and stay closed under adjoining the largest
missing element.  Families are named by descriptors (interval, restricted,
generated-by-chains), walked as trees, enumerated genus by genus, and
cross-checked against brute-force oracles.
"""

from .core import (
    NumSG, DomainError, ParseError, InvariantError, EmptyGenerators,
    InvalidGenerator, GcdNotOne, NotMember, NotMinimalGenerator, AlreadyMember,
    NotClosed, NotContained, EqualSemigroups, CapacityExceeded, NATURALS,
    from_generators, contains, frobenius, genus, multiplicity, elements,
    msg, intersect, intersect_all, is_subset, remove_element, add_element,
    union_with_tail, restricted_frobenius, parse_semigroup, format_semigroup,
)
from .descriptors import Interval, Restricted, Generated, delta_of
from .chains import (
    ChainRec, NotInDelta, NotInVariety, NotNumerical, NoContainingElement,
    chain_to, chain_family, is_member, rmonoid_generated, minimal_rsystem,
    rrange,
)
from .closures import (
    LD, PL, KINDS, variety_closure, restricted_closure, minimal_vsystem,
)
from .engine import (
    DEFAULT_GENUS_BOUND, RTreeNode, member, build_tree, tree_of, tree_vertices,
    members_of, genus_level, is_pseudo_variety, descendants, restrict_variety,
    children,
)

__version__ = "0.1.0"

# The brute-force oracle and its names load on first use (PEP 562), so
# importing the package, or the CLI, does not load them.
_ORACLE_NAMES = frozenset({
    "oracle", "enumerate_between", "smallest_containing", "oracle_members",
    "minimal_system_from_members", "random_semigroup", "random_subsemigroup",
    "random_interval", "random_restricted", "check_rvariety_axioms",
})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from importlib import import_module
        oracle = import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)
