"""Command line front end.

Exit codes: 0 success, 1 usage or parse problem, 2 domain error (invalid
semigroup arithmetic, non-member arguments, undecidable-within-bound),
3 internal error (any other exception: a fault of the program),
141 stdout closed by its reader (128 + SIGPIPE, as a shell reports a
pipe's writer killed by that signal).
Output is deterministic: members sort by (genus, small elements), JSON keys
are sorted, trees list children by increasing removed element.

A subcommand is declared once, beside its handler:
@_command(name, help, *arguments) registers the handler with its help line
and its arguments, each a function that adds itself to the subparser, and
build_parser is one loop over the registry.  The three family flags share
one destination, a (kind, text) pair that _variety_from reads.

Every subcommand has one output path.  Its handler does the work and
returns (items, text, record): an iterable of items and two functions of
one item.  For --format text or dot main writes text(item), a string or,
for a tree, an iterable of lines, so no tree is held as one string.  For
--format structured it writes json.dumps(record(item), sort_keys=True),
one line per item; a tree's record is its JSON text already, written
by the explicit-stack writer that also gives a node its repr
(engine._written), since json.dumps recurses once per level and fails
on a tree a few hundred levels deep.  Only the function of the chosen
format runs, so text output computes no field it does not print.  Lines
go out in writes of about _CHUNK characters, not one per line: with
unbuffered stdout each write is a system call.
verify has only the text format: its items are its lines, made as its
checks run, and a failed check ends them with a domain error.

A request runs only what its command uses.  build_parser builds the one
subparser that argv names; the library modules run on first use, so the
code reaches them through their module (engine.tree_of), and json and
random are imported only where they are used.
"""

import argparse
import os
import sys

from . import chains, closures, descriptors, engine
from .core import (
    NumSG, DomainError, ParseError, format_semigroup,
    from_generators, frobenius, genus, intersect, intersect_all, msg,
    multiplicity, parse_semigroup, restricted_frobenius,
)

_CHUNK = 1 << 16


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
        # an optional '-' and decimal digits; int() alone also takes '1_0'
        if not tok.removeprefix("-").isdecimal():
            raise ParseError("bad integer %r" % tok)
        out.append(int(tok))
    return out


def _variety_from(args):
    kind, text = args.family
    if ":" not in text:
        raise ParseError("--%s expects a ':' before the outer semigroup" % kind)
    left, right = text.rsplit(":", 1)
    outer = parse_semigroup(right)
    if kind == "interval":
        return descriptors.Interval(parse_semigroup(left), outer)
    if kind == "restricted":
        return descriptors.Restricted(frozenset(_parse_ints(left)), outer)
    parts = [p for p in left.split(";") if p.strip()]
    return descriptors.Generated(tuple(parse_semigroup(p) for p in parts), outer)


def _csv(xs):
    return ",".join(map(str, xs))


def _record(s, fdelta, **more):
    """The structured form of a member: sg, msg, genus, fdelta, plus more."""
    return {"sg": format_semigroup(s), "msg": list(msg(s)), "genus": genus(s),
            "fdelta": fdelta, **more}


# ---------------------------------------------------------------- trees

def _tree_json(root):
    """json.dumps(record, sort_keys=True) of the record of root's subtree,
    a node's _record with its minsys and its children's records, written
    by engine._written, so no depth reaches the recursion limit.  With
    sorted keys "children" comes first: a node is '{"children": [', its
    children joined by ', ', then '], ' and the rest of its record."""
    import json
    return engine._written(
        root, lambda n: '{"children": [',
        lambda n: "], " + json.dumps(
            _record(n.sg, n.restricted_frob, minsys=n.min_system), sort_keys=True)[1:])


def _tree_text(root, complete, bound):
    # a child has one gap more than its parent, so depth is a genus difference
    g0 = genus(root.sg)
    for n in engine.tree_vertices(root):
        yield ("%s%s  [%s]  fdelta=%d"
               % ("  " * (genus(n.sg) - g0), format_semigroup(n.sg),
                  _csv(n.min_system), n.restricted_frob))
    if not complete:
        yield "# truncated at genus %d" % bound


def _tree_dot(root, complete, bound):
    order = engine.tree_vertices(root)
    ids = {id(n): "n%d" % i for i, n in enumerate(order)}
    yield "digraph rvariety {"
    yield "  rankdir=BT;"
    for n in order:
        yield '  %s [label="%s"];' % (ids[id(n)], format_semigroup(n.sg))
    for n in order:
        for c in n.children:
            yield "  %s -> %s;" % (ids[id(c)], ids[id(n)])
    if not complete:
        yield "  // truncated at genus %d" % bound
    yield "}"


def _any_tree(desc, args):
    bound = args.genus_bound
    render = _tree_dot if args.format == "dot" else _tree_text
    return ([engine.tree_of(desc, bound)],
            lambda tree: render(*tree, bound),
            lambda tree: '{"complete": %s, "genus_bound": %d, "tree": %s}'
            % ("true" if tree[1] else "false", bound, _tree_json(tree[0])))


# ------------------------------------------------------------- subcommands

_COMMANDS = []


def _command(name, line, *arguments):
    """Register the decorated handler as subcommand name, with its help line
    and its arguments, each a function that adds itself to the subparser."""
    def register(handler):
        _COMMANDS.append((name, line, arguments, handler))
        return handler
    return register


def _arg(*flags, **kw):
    return lambda p: p.add_argument(*flags, **kw)


def _variety(p):
    # the three flags share one destination: each tags its text with its kind
    g = p.add_mutually_exclusive_group(required=True)
    for kind, metavar in (("interval", "LO:HI"), ("restricted", "ELEMS:T"),
                          ("generated", "S1;S2:DELTA")):
        g.add_argument("--" + kind, metavar=metavar, dest="family",
                       type=lambda text, kind=kind: (kind, text))


_sg = _arg("sg")
_inside = _arg("--inside", metavar="T")
_format = _arg("--format", choices=["text", "structured"])
_dot = _arg("--format", choices=["text", "dot", "structured"])


# adders that read a module run it only when their subparser is built
def _bound(p):
    p.add_argument("--genus-bound", type=int, default=engine.DEFAULT_GENUS_BOUND,
                   metavar="N")


@_command("info", "summary of one semigroup", _sg, _format)
def _cmd_info(args):
    def text(s):
        return ("sg: %s\nmultiplicity: %d\nfrobenius: %d\ngenus: %d\nsmall: %s"
                % (format_semigroup(s), multiplicity(s), frobenius(s), genus(s),
                   _csv(s.small)))
    return [parse_semigroup(args.sg)], text, lambda s: {
        "sg": format_semigroup(s), "msg": list(msg(s)),
        "multiplicity": multiplicity(s), "frobenius": frobenius(s),
        "genus": genus(s), "small": list(s.small)}


@_command("msg", "minimal generating set", _sg, _format)
def _cmd_msg(args):
    return [parse_semigroup(args.sg)], lambda s: _csv(msg(s)), lambda s: {
        "sg": format_semigroup(s), "msg": list(msg(s))}


@_command("frobenius", "Frobenius number, restricted with --inside",
          _sg, _inside, _format)
def _cmd_frobenius(args):
    s = parse_semigroup(args.sg)
    if args.inside is None:
        return [s], lambda s: str(frobenius(s)), lambda s: {
            "sg": format_semigroup(s), "frobenius": frobenius(s)}
    t = parse_semigroup(args.inside)
    return [restricted_frobenius(s, t)], str, lambda val: {
        "sg": format_semigroup(s), "inside": format_semigroup(t), "fdelta": val}


@_command("genus", "number of gaps", _sg, _format)
def _cmd_genus(args):
    return [parse_semigroup(args.sg)], lambda s: str(genus(s)), lambda s: {
        "sg": format_semigroup(s), "genus": genus(s)}


@_command("intersect", "intersection of semigroups", _arg("sgs", nargs="+"), _format)
def _cmd_intersect(args):
    out = intersect_all([parse_semigroup(t) for t in args.sgs])
    return [out], format_semigroup, lambda s: {
        "sg": format_semigroup(s), "msg": list(msg(s)),
        "frobenius": frobenius(s), "genus": genus(s)}


@_command("chain", "adjunction chain from SG up to --inside", _sg,
          _arg("--inside", metavar="T", required=True), _format)
def _cmd_chain(args):
    rec = chains.chain_to(parse_semigroup(args.sg), parse_semigroup(args.inside))

    def text(link):
        s, fill = link
        if fill is None:
            return format_semigroup(s)
        return "%s  adjoin=%d" % (format_semigroup(s), fill)
    return zip(rec.links, (None,) + rec.fill_values), text, lambda link: _record(*link)


@_command("minsys", "minimal generating system within a family",
          _sg, _variety, _format)
def _cmd_minsys(args):
    desc = _variety_from(args)
    s = parse_semigroup(args.sg)
    system = chains._checked(desc, s)
    return [s], lambda s: _csv(system), lambda s: _record(
        s, engine.fdelta(s, descriptors.delta_of(desc)), minsys=system)


@_command("tree", "family tree rooted at the maximum", _variety, _bound, _dot)
def _cmd_tree(args):
    return _any_tree(_variety_from(args), args)


@_command("genus-level", "members with an exact genus", _variety,
          _arg("--genus", type=int, required=True, metavar="G"), _format)
def _cmd_genus_level(args):
    desc = _variety_from(args)
    # the walk carries each member's fdelta in the family's maximum and its
    # system, so no system is checked or computed again
    level = sorted(engine._last_level(desc, args.genus), key=lambda m: m[0].sort_key())
    return (level, lambda m: format_semigroup(m[0]),
            lambda m: _record(m[0], m[1], minsys=m[2]))


@_command("descendants", "subtree hanging from one member",
          _sg, _variety, _bound, _dot)
def _cmd_descendants(args):
    desc = _variety_from(args)
    return _any_tree(engine.descendants(desc, parse_semigroup(args.sg)), args)


@_command("closure", "smallest ld/pl semigroup containing gens",
          lambda p: p.add_argument("--kind", choices=closures.KINDS, required=True),
          _arg("gens", nargs="?", metavar="A1,A2,..."), _inside,
          _arg("--vsystem", metavar="SG", help="emit the minimal system of SG instead"),
          _format)
def _cmd_closure(args):
    if (args.gens is None) == (args.vsystem is None):
        raise ParseError("give a generator list or --vsystem" if args.gens is None
                         else "give either generator list or --vsystem, not both")
    if args.vsystem is not None:
        if args.inside is not None:
            raise ParseError("--inside only applies to a generator list")
        m = parse_semigroup(args.vsystem)
        system = sorted(closures.minimal_vsystem(args.kind, m))
        return [m], lambda m: _csv(system), lambda m: {
            "sg": format_semigroup(m), "kind": args.kind, "vsystem": system}
    gens = _parse_ints(args.gens)
    if not gens:
        raise ParseError("empty generator list in %r" % args.gens)
    if args.inside is not None:
        out = closures.restricted_closure(args.kind, gens, parse_semigroup(args.inside))
    else:
        out = closures.variety_closure(args.kind, gens)
    return [out], format_semigroup, lambda s: {
        "sg": format_semigroup(s), "msg": list(msg(s)), "kind": args.kind,
        "frobenius": frobenius(s), "genus": genus(s)}


@_command("restrict", "intersect every member with --by", _variety,
          _arg("--by", metavar="U", required=True), _bound, _format)
def _cmd_restrict(args):
    desc = _variety_from(args)
    u = parse_semigroup(args.by)
    image, complete = engine.restriction_of(desc, u, args.genus_bound)
    if not complete:
        print("note: truncated at genus %d" % args.genus_bound, file=sys.stderr)
    top = intersect(descriptors.delta_of(desc), u)
    return (sorted(image, key=NumSG.sort_key), format_semigroup,
            lambda s: _record(s, engine.fdelta(s, top)))


@_command("verify", "cross-check fast paths against brute force",
          _arg("--seed", type=int, default=0), _arg("--count", type=int, default=20),
          _arg("--genus-bound", type=int, default=12, metavar="N"))
def _cmd_verify(args):
    import random

    from .oracle import (
        minimal_system_from_members, oracle_members, random_interval,
        random_restricted,
    )
    if args.count < 0:
        raise ParseError("--count must be at least 0, not %d" % args.count)
    rng = random.Random(args.seed)
    restricted = descriptors.Restricted(frozenset({4, 6}), from_generators([4, 6, 7]))
    engine._bounded_top(restricted, args.genus_bound)  # refused before any check runs

    def checks():
        # the fixtures' node systems are checked too, against the oracle family
        # one genus deeper, which holds m without x for every x in m's system
        yield ("interval fixture", descriptors.Interval(
            from_generators([5, 6]), from_generators([5, 6, 7])), 20, True)
        yield "restricted fixture", restricted, args.genus_bound, True
        yield ("generated fixture closure", descriptors.Generated(
            (from_generators([5, 7, 9, 11, 13]), from_generators([4, 10, 11, 13])),
            from_generators([4, 5, 7])), 20, True)
        # each random family is drawn as its check comes up, and its
        # maximum fits the bound, so no walk is refused
        for i in range(args.count):
            kind, make = (("interval", random_interval) if i % 2 == 0
                          else ("restricted", random_restricted))
            yield ("random %s #%d" % (kind, i),
                   make(rng, min(8, args.genus_bound)), args.genus_bound, False)

    def lines():
        failures = 0
        for label, desc, bound, systems in checks():
            nodes = engine.tree_vertices(engine.tree_of(desc, bound)[0])
            slow = oracle_members(desc, bound)
            ok = {n.sg for n in nodes} == slow
            if ok and systems:
                family = oracle_members(desc, bound + 1)
                ok = all(n.min_system == tuple(sorted(
                    minimal_system_from_members(family, n.sg))) for n in nodes)
            yield "%s %s (%d members)" % ("ok" if ok else "FAIL", label, len(slow))
            failures += not ok
        if failures:
            raise DomainError("%d check(s) failed" % failures)
        yield "all checks passed (seed=%d, count=%d)" % (args.seed, args.count)
    return lines(), str, None


# -------------------------------------------------------------- the parser

def build_parser(argv=()):
    """The parser with the one subparser that argv[0] names, or all if none."""
    chosen = [c for c in _COMMANDS if argv and c[0] == argv[0]]
    parser = _Parser(prog="rvar",
                     description="Families of numerical semigroups: trees, "
                                 "chains, closures.")
    # all names in the usage line; with all built, a metavar would hide "cmd"
    names = "{%s}" % ",".join(c[0] for c in _COMMANDS) if chosen else None
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser,
                                metavar=names)
    for name, line, arguments, handler in chosen or _COMMANDS:
        p = sub.add_parser(name, help=line)
        for add in arguments:
            add(p)
        # every --format defaults to text, and verify, which has none, writes text
        p.set_defaults(handler=handler, format="text")
    return parser


def _write(items, text):
    """Write the lines of every item to stdout, about _CHUNK characters per write."""
    buf, size = [], 0
    try:
        for item in items:
            out = text(item)
            for line in [out] if isinstance(out, str) else out:
                buf.append(line)
                size += len(line) + 1
                if size >= _CHUNK:
                    sys.stdout.write("\n".join(buf) + "\n")
                    buf, size = [], 0
    finally:  # lines made before a failure are still written
        if buf:
            sys.stdout.write("\n".join(buf) + "\n")


def main(argv=None) -> int:
    parser = build_parser(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        items, text, record = args.handler(args)
        if args.format == "structured":
            import json
            text = lambda item: (out if isinstance(out := record(item), str)
                                 else json.dumps(out, sort_keys=True))
        _write(items, text)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader of stdout is gone; with fd 1 on the null device the
        # interpreter's own flush at exit finds no broken pipe to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, DomainError) as e:
        print("rvar: error: %s" % e, file=sys.stderr)
        return 2 if isinstance(e, DomainError) else 1
    except Exception as e:  # a fault of the program: one line, no traceback
        print("rvar: internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
