"""Exact arithmetic for numerical semigroups and their restricted families.

The library models intersection-closed families of numerical semigroups
that sit below a fixed maximum and stay closed under adjoining the largest
missing element.  Families are named by descriptors (interval, restricted,
generated-by-chains), walked as trees, enumerated genus by genus, and
cross-checked against brute-force oracles.

Importing the package runs none of its modules: each waits in sys.modules
as a LazyLoader module until its first attribute access.  A public name is
looked up once, through one name -> module table (PEP 562), and then kept
in the package.  First use from two threads at once is not supported.
"""

import sys as _sys
from importlib import util as _util

__version__ = "0.1.0"

# each module's public names, served from the package root
_NAMES = {
    "core": ("NumSG", "DomainError", "ParseError", "InvariantError", "EmptyGenerators",
             "InvalidGenerator", "GcdNotOne", "NotMember", "NotMinimalGenerator",
             "AlreadyMember", "NotClosed", "NotContained", "EqualSemigroups",
             "CapacityExceeded", "NATURALS", "from_generators", "contains", "frobenius",
             "genus", "multiplicity", "elements", "msg", "intersect", "intersect_all",
             "is_subset", "remove_element", "add_element", "union_with_tail",
             "restricted_frobenius", "parse_semigroup", "format_semigroup"),
    "descriptors": ("Interval", "Restricted", "Generated", "NotNumerical", "delta_of"),
    "chains": ("ChainRec", "NotInDelta", "NotInVariety", "NoContainingElement",
               "chain_to", "chain_family", "is_member", "rmonoid_generated",
               "minimal_rsystem", "rrange"),
    "closures": ("LD", "PL", "KINDS", "variety_closure", "restricted_closure",
                 "minimal_vsystem"),
    "engine": ("DEFAULT_GENUS_BOUND", "RTreeNode", "member", "build_tree", "tree_of",
               "tree_vertices", "members_of", "genus_level", "is_pseudo_variety",
               "descendants", "restrict_variety", "children"),
    "oracle": ("enumerate_between", "smallest_containing", "oracle_members",
               "minimal_system_from_members", "random_semigroup", "random_subsemigroup",
               "random_interval", "random_restricted", "check_rvariety_axioms"),
}
_WHERE = {name: module for module, names in _NAMES.items() for name in names}
# a star import takes the modules and their names, the brute-force oracle aside
__all__ = [name for module, names in _NAMES.items() if module != "oracle"
           for name in (module, *names)]

for _module in _NAMES:
    _spec = _util.find_spec("." + _module, __name__)
    _spec.loader = _util.LazyLoader(_spec.loader)
    globals()[_module] = _sys.modules[_spec.name] = _util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec


def __getattr__(name):
    if name not in _WHERE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(globals()[_WHERE[name]], name)
    return value


def __dir__():
    return sorted(globals().keys() | _WHERE.keys())
