"""Command line front end.

Exit codes: 0 success, 1 usage or parse problem, 2 domain error (invalid
semigroup arithmetic, non-member arguments, undecidable-within-bound),
3 internal error (a failed invariant check: a fault of the program).
Output is deterministic: members sort by (genus, small elements), JSON keys
are sorted, trees list children by increasing removed element.
"""

import argparse
import json
import random
import sys

from .core import (
    DomainError, InvariantError, ParseError, format_semigroup, from_generators,
    frobenius, genus, intersect, intersect_all, msg, multiplicity,
    parse_semigroup, restricted_frobenius,
)
from .descriptors import Interval, Restricted, Generated, delta_of
from .chains import chain_to, chain_family, minimal_rsystem
from .closures import KINDS, variety_closure, restricted_closure, minimal_vsystem
from .engine import (
    DEFAULT_GENUS_BOUND, descendants, fdelta, genus_level, members_of,
    restriction_of, tree_of,
)
from .oracle import oracle_members, random_interval, random_restricted


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which this tool reserves for
    # domain errors; remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _parse_ints(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(int(tok))
        except ValueError:
            raise ParseError("bad integer %r" % tok) from None
    return out


def _variety_from(args):
    if args.interval is not None:
        text, flag = args.interval, "--interval"
    elif args.restricted is not None:
        text, flag = args.restricted, "--restricted"
    else:
        text, flag = args.generated, "--generated"
    if ":" not in text:
        raise ParseError("%s expects a ':' before the outer semigroup" % flag)
    left, right = text.rsplit(":", 1)
    outer = parse_semigroup(right)
    if flag == "--interval":
        return Interval(parse_semigroup(left), outer)
    if flag == "--restricted":
        return Restricted(frozenset(_parse_ints(left)), outer)
    parts = [p for p in left.split(";") if p.strip()]
    return Generated(tuple(parse_semigroup(p) for p in parts), outer)


def _record(desc, s):
    return {
        "sg": format_semigroup(s),
        "msg": list(msg(s)),
        "genus": genus(s),
        "fdelta": fdelta(s, delta_of(desc)),
        "minsys": sorted(minimal_rsystem(desc, s)),
    }


def _emit_json(obj):
    print(json.dumps(obj, sort_keys=True))


# ---------------------------------------------------------------- rendering

def _render_tree_text(root, complete, bound):
    def walk(n, depth):
        print("%s%s  [%s]  fdelta=%d"
              % ("  " * depth, format_semigroup(n.sg),
                 ",".join(map(str, sorted(n.min_system))), n.restricted_frob))
        for c in n.children:
            walk(c, depth + 1)
    walk(root, 0)
    if not complete:
        print("# truncated at genus %d" % bound)


def _render_tree_dot(root, complete, bound):
    order = []
    def walk(n):
        order.append(n)
        for c in n.children:
            walk(c)
    walk(root)
    ids = {id(n): "n%d" % i for i, n in enumerate(order)}
    print("digraph rvariety {")
    print("  rankdir=BT;")
    for n in order:
        print('  %s [label="%s"];' % (ids[id(n)], format_semigroup(n.sg)))
    for n in order:
        for c in n.children:
            print("  %s -> %s;" % (ids[id(c)], ids[id(n)]))
    if not complete:
        print("  // truncated at genus %d" % bound)
    print("}")


def _tree_obj(n):
    return {
        "sg": format_semigroup(n.sg),
        "msg": list(msg(n.sg)),
        "genus": genus(n.sg),
        "fdelta": n.restricted_frob,
        "minsys": sorted(n.min_system),
        "children": [_tree_obj(c) for c in n.children],
    }


def _cmd_any_tree(desc, args):
    root, complete = tree_of(desc, args.genus_bound)
    if args.format == "text":
        _render_tree_text(root, complete, args.genus_bound)
    elif args.format == "dot":
        _render_tree_dot(root, complete, args.genus_bound)
    else:
        _emit_json({"complete": complete, "genus_bound": args.genus_bound,
                    "tree": _tree_obj(root)})
    return 0


# ------------------------------------------------------------- subcommands

def _cmd_info(args):
    s = parse_semigroup(args.sg)
    if args.format == "structured":
        _emit_json({"sg": format_semigroup(s), "msg": list(msg(s)),
                    "multiplicity": multiplicity(s), "frobenius": frobenius(s),
                    "genus": genus(s), "small": list(s.small)})
        return 0
    print("sg: %s" % format_semigroup(s))
    print("multiplicity: %d" % multiplicity(s))
    print("frobenius: %d" % frobenius(s))
    print("genus: %d" % genus(s))
    print("small: %s" % ",".join(map(str, s.small)))
    return 0


def _cmd_msg(args):
    s = parse_semigroup(args.sg)
    if args.format == "structured":
        _emit_json({"sg": format_semigroup(s), "msg": list(msg(s))})
    else:
        print(",".join(map(str, msg(s))))
    return 0


def _cmd_frobenius(args):
    s = parse_semigroup(args.sg)
    if args.inside is not None:
        t = parse_semigroup(args.inside)
        val = restricted_frobenius(s, t)
        if args.format == "structured":
            _emit_json({"sg": format_semigroup(s), "inside": format_semigroup(t),
                        "fdelta": val})
        else:
            print(val)
        return 0
    if args.format == "structured":
        _emit_json({"sg": format_semigroup(s), "frobenius": frobenius(s)})
    else:
        print(frobenius(s))
    return 0


def _cmd_genus(args):
    s = parse_semigroup(args.sg)
    if args.format == "structured":
        _emit_json({"sg": format_semigroup(s), "genus": genus(s)})
    else:
        print(genus(s))
    return 0


def _cmd_intersect(args):
    out = intersect_all([parse_semigroup(t) for t in args.sgs])
    if args.format == "structured":
        _emit_json({"sg": format_semigroup(out), "msg": list(msg(out)),
                    "frobenius": frobenius(out), "genus": genus(out)})
    else:
        print(format_semigroup(out))
    return 0


def _cmd_chain(args):
    s = parse_semigroup(args.sg)
    t = parse_semigroup(args.inside)
    rec = chain_to(s, t)
    fills = (None,) + rec.fill_values
    for link, fill in zip(rec.links, fills):
        if args.format == "structured":
            _emit_json({"sg": format_semigroup(link), "msg": list(msg(link)),
                        "genus": genus(link), "fdelta": fill})
        elif fill is None:
            print(format_semigroup(link))
        else:
            print("%s  adjoin=%d" % (format_semigroup(link), fill))
    return 0


def _cmd_minsys(args):
    desc = _variety_from(args)
    s = parse_semigroup(args.sg)
    if args.format == "structured":
        _emit_json(_record(desc, s))
    else:
        print(",".join(map(str, sorted(minimal_rsystem(desc, s)))))
    return 0


def _cmd_tree(args):
    return _cmd_any_tree(_variety_from(args), args)


def _cmd_genus_level(args):
    desc = _variety_from(args)
    level = sorted(genus_level(desc, args.genus), key=lambda s: s.sort_key())
    for s in level:
        if args.format == "structured":
            _emit_json(_record(desc, s))
        else:
            print(format_semigroup(s))
    return 0


def _cmd_descendants(args):
    desc = _variety_from(args)
    view = descendants(desc, parse_semigroup(args.sg))
    return _cmd_any_tree(view, args)


def _cmd_closure(args):
    if (args.gens is None) == (args.vsystem is None):
        raise ParseError("give either generator list or --vsystem, not both")
    if args.vsystem is not None:
        if args.inside is not None:
            raise ParseError("--inside only applies to a generator list")
        m = parse_semigroup(args.vsystem)
        system = sorted(minimal_vsystem(args.kind, m))
        if args.format == "structured":
            _emit_json({"sg": format_semigroup(m), "kind": args.kind,
                        "vsystem": system})
        else:
            print(",".join(map(str, system)))
        return 0
    gens = _parse_ints(args.gens)
    if args.inside is not None:
        out = restricted_closure(args.kind, gens, parse_semigroup(args.inside))
    else:
        out = variety_closure(args.kind, gens)
    if args.format == "structured":
        _emit_json({"sg": format_semigroup(out), "msg": list(msg(out)),
                    "kind": args.kind, "frobenius": frobenius(out),
                    "genus": genus(out)})
    else:
        print(format_semigroup(out))
    return 0


def _cmd_restrict(args):
    desc = _variety_from(args)
    u = parse_semigroup(args.by)
    image, complete = restriction_of(desc, u, args.genus_bound)
    if not complete:
        print("note: truncated at genus %d" % args.genus_bound, file=sys.stderr)
    top = intersect(delta_of(desc), u)
    for s in sorted(image, key=lambda s: s.sort_key()):
        if args.format == "structured":
            _emit_json({"sg": format_semigroup(s), "msg": list(msg(s)),
                        "genus": genus(s), "fdelta": fdelta(s, top)})
        else:
            print(format_semigroup(s))
    return 0


def _cmd_verify(args):
    rng = random.Random(args.seed)
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(("ok " if ok else "FAIL ") + name)
        if not ok:
            failures += 1

    ex_interval = Interval(from_generators([5, 6]), from_generators([5, 6, 7]))
    fast = set(members_of(ex_interval, 20)[0])
    slow = oracle_members(ex_interval, 20)
    check("interval fixture (%d members)" % len(slow), fast == slow)

    ex_restricted = Restricted(frozenset({4, 6}), from_generators([4, 6, 7]))
    fast = set(members_of(ex_restricted, args.genus_bound)[0])
    slow = oracle_members(ex_restricted, args.genus_bound)
    check("restricted fixture (%d members)" % len(slow), fast == slow)

    ex_generated = Generated(
        (from_generators([5, 7, 9, 11, 13]), from_generators([4, 10, 11, 13])),
        from_generators([4, 5, 7]))
    fast = set(members_of(ex_generated, 20)[0])
    fam = sorted(chain_family(ex_generated.f, ex_generated.delta),
                 key=lambda s: s.sort_key())
    slow = set()
    for mask in range(1, 1 << len(fam)):
        slow.add(intersect_all([fam[i] for i in range(len(fam))
                                if mask >> i & 1]))
    check("generated fixture closure (%d members)" % len(slow), fast == slow)

    for i in range(args.count):
        desc = random_interval(rng) if i % 2 == 0 else random_restricted(rng)
        fast = set(members_of(desc, args.genus_bound)[0])
        slow = oracle_members(desc, args.genus_bound)
        check("random %s #%d (%d members)"
              % (type(desc).__name__.lower(), i, len(slow)), fast == slow)

    if failures:
        print("%d check(s) failed" % failures, file=sys.stderr)
        return 2
    print("all checks passed (seed=%d, count=%d)" % (args.seed, args.count))
    return 0


# -------------------------------------------------------------- the parser

def _add_format(p, dot=False):
    choices = ["text", "dot", "structured"] if dot else ["text", "structured"]
    p.add_argument("--format", choices=choices, default="text")


def _add_variety(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--interval", metavar="LO:HI")
    g.add_argument("--restricted", metavar="ELEMS:T")
    g.add_argument("--generated", metavar="S1;S2:DELTA")


def _add_bound(p):
    p.add_argument("--genus-bound", type=int, default=DEFAULT_GENUS_BOUND,
                   metavar="N")


def build_parser():
    parser = _Parser(prog="rvar",
                     description="Families of numerical semigroups: trees, "
                                 "chains, closures.")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("info", help="summary of one semigroup")
    p.add_argument("sg")
    _add_format(p)
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("msg", help="minimal generating set")
    p.add_argument("sg")
    _add_format(p)
    p.set_defaults(handler=_cmd_msg)

    p = sub.add_parser("frobenius", help="Frobenius number, restricted with --inside")
    p.add_argument("sg")
    p.add_argument("--inside", metavar="T")
    _add_format(p)
    p.set_defaults(handler=_cmd_frobenius)

    p = sub.add_parser("genus", help="number of gaps")
    p.add_argument("sg")
    _add_format(p)
    p.set_defaults(handler=_cmd_genus)

    p = sub.add_parser("intersect", help="intersection of semigroups")
    p.add_argument("sgs", nargs="+")
    _add_format(p)
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser("chain", help="adjunction chain from SG up to --inside")
    p.add_argument("sg")
    p.add_argument("--inside", metavar="T", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_chain)

    p = sub.add_parser("minsys", help="minimal generating system within a family")
    p.add_argument("sg")
    _add_variety(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_minsys)

    p = sub.add_parser("tree", help="family tree rooted at the maximum")
    _add_variety(p)
    _add_bound(p)
    _add_format(p, dot=True)
    p.set_defaults(handler=_cmd_tree)

    p = sub.add_parser("genus-level", help="members with an exact genus")
    _add_variety(p)
    p.add_argument("--genus", type=int, required=True, metavar="G")
    _add_format(p)
    p.set_defaults(handler=_cmd_genus_level)

    p = sub.add_parser("descendants", help="subtree hanging from one member")
    p.add_argument("sg")
    _add_variety(p)
    _add_bound(p)
    _add_format(p, dot=True)
    p.set_defaults(handler=_cmd_descendants)

    p = sub.add_parser("closure", help="smallest ld/pl semigroup containing gens")
    p.add_argument("--kind", choices=list(KINDS), required=True)
    p.add_argument("gens", nargs="?", metavar="A1,A2,...")
    p.add_argument("--inside", metavar="T")
    p.add_argument("--vsystem", metavar="SG",
                   help="emit the minimal system of SG instead")
    _add_format(p)
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("restrict", help="intersect every member with --by")
    _add_variety(p)
    p.add_argument("--by", metavar="U", required=True)
    _add_bound(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_restrict)

    p = sub.add_parser("verify", help="cross-check fast paths against brute force")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--genus-bound", type=int, default=12, metavar="N")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.handler(args)
    except ParseError as e:
        print("rvar: error: %s" % e, file=sys.stderr)
        return 1
    except DomainError as e:
        print("rvar: error: %s" % e, file=sys.stderr)
        return 2
    except InvariantError as e:
        print("rvar: internal error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
