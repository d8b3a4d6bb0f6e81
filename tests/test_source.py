"""Source-level rules for the rvar package."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import rvar

SRC = pathlib.Path(rvar.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one
    # silently stops checking; every check in the package must raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) >= 8
    assert found == []


def _imports(node, scope=None):
    """(enclosing function name or None, node) for every import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield scope, child
        inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else scope)
        yield from _imports(child, inner)


def _reaches_oracle(node, oracle_names):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[:2] == ["rvar", "oracle"] for a in node.names)
    module = node.module or ""
    if node.level:
        module = "rvar." + module if module else "rvar"
    if module == "rvar.oracle":
        return True
    # names taken from the package root may be the oracle's re-exports
    return module == "rvar" and any(
        a.name == "oracle" or a.name in oracle_names for a in node.names)


def test_oracle_stays_off_the_hot_paths():
    # the brute-force references serve the tests and `rvar verify`; the
    # package root re-exports them, and no other module may reach them
    oracle = ast.parse((SRC / "oracle.py").read_text())
    oracle_names = {n.name for n in oracle.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    found, allowed = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, node in _imports(tree):
            if _reaches_oracle(node, oracle_names):
                where = "%s:%d" % (path.name, node.lineno)
                ok = (path.name, scope) == ("cli.py", "_cmd_verify")
                (allowed if ok else found).append(where)
    assert found == []
    assert len(allowed) == 1  # the guard sees the one import it permits


_RUN_MODULES = """\
import contextlib, io, sys, types
import rvar.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert rvar.cli.main(sys.argv[1:]) == 0
heavy = ('dataclasses', 'inspect', 'json', 'random')
print(' '.join(sorted(n for n, m in sys.modules.items()
                      if n.startswith('rvar.') and type(m) is types.ModuleType)))
print(' '.join(m for m in heavy if m in sys.modules))
"""


def test_cli_import_loads_no_heavy_modules():
    # a CLI request pays for every module it runs.  The package's modules
    # sit in sys.modules unrun until first used, so a request runs only
    # those its command needs; dataclasses pulls in inspect, and json,
    # random and the oracle serve only structured output, verify and the
    # tests.  contextlib and io are the probe's own; -S keeps site's
    # imports out of the list.
    for argv, run in [
        ([], "cli core"),
        (["closure", "--kind", "pl", "15,16"], "cli closures core"),
        (["tree", "--restricted", ":<1>", "--genus-bound", "5"],
         "chains cli core descriptors engine"),
    ]:
        done = subprocess.run([sys.executable, "-S", "-c", _RUN_MODULES, *argv],
                              env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "%s\n\n" % " ".join("rvar." + m for m in run.split()), argv


def test_the_tracer_finds_every_layer_after_importing_the_cli():
    # the benchmark's tracer imports rvar.cli, then reads each layer from
    # sys.modules and rebinds the functions that its LAYERS names; a layer
    # that the CLI imported only inside a handler would be missing there.
    # A name that its layer does not define is skipped by the tracer.
    tracer = ast.parse((SRC.parents[1] / "bench" / "tracer.py").read_text())
    layers = next(ast.literal_eval(n.value) for n in tracer.body
                  if isinstance(n, ast.Assign) and n.targets[0].id == "LAYERS")
    traced = [(layer, fn) for layer, fns in layers.items() for fn in fns
              if fn in _top_functions(layer + ".py")]
    assert {layer for layer, _ in traced} == {"core", "chains", "engine", "closures"}
    code = ("import sys\n"
            "import rvar.cli\n"
            "for layer, fn in %r:\n"
            "    f = getattr(sys.modules['rvar.' + layer], fn)\n"
            "    print(f.__module__, f.__name__)\n" % traced)
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["rvar.%s %s" % pair for pair in traced]


def _called_names(func):
    """Names of the functions that the body of func calls, bare or dotted."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                yield f.id
            elif isinstance(f, ast.Attribute):
                yield f.attr


def _top_functions(name):
    """The module-level functions of the package module name, by name."""
    tree = ast.parse((SRC / name).read_text())
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_walk_path_makes_no_rechecks():
    # the walk removes elements of a member's own system from members it
    # built itself, so the checked forms for outside input stay off its path;
    # a complete restriction image is a family by proof, so it is not re-checked;
    # the system kernel a walk takes from chains is held to the same rule
    checked = {"remove_element", "minimal_rsystem", "_checked", "is_member",
               "check_rvariety_axioms"}
    walk = {"engine.py": {"_walk", "_levels", "_last_level", "_next_level",
                          "children", "members_of", "_walked",
                          "_cut", "restriction_of"},
            "chains.py": {"_systems", "_restricted_kernel", "_generated_kernel"}}
    assert checked - {"check_rvariety_axioms"} <= (
        set(_top_functions("chains.py")) | set(_top_functions("core.py")))
    found = []
    for module, names in sorted(walk.items()):
        funcs = _top_functions(module)
        assert names <= set(funcs)
        found += sorted("%s calls %s" % (name, called) for name in names
                        for called in _called_names(funcs[name]) if called in checked)
    assert found == []


def test_oracle_removes_elements_by_its_own_arithmetic():
    # core's removal may take a child's msg from its parent's; the oracle
    # builds children as plain masks, so `rvar verify` does not check that
    # derivation against itself
    shared = {"remove_element", "_drop"}
    tree = ast.parse((SRC / "oracle.py").read_text())
    funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert {"enumerate_between", "random_semigroup", "random_subsemigroup"} <= {
        f.name for f in funcs}
    found = sorted("%s calls %s" % (f.name, called) for f in funcs
                   for called in _called_names(f) if called in shared)
    assert found == []


def test_closed_forms_make_no_search():
    # is_pseudo_variety reads the answer off the maximum's tree node, and
    # chain_to writes each link as a union with a tail: neither walks the
    # family nor re-checks a step
    banned = {("engine.py", "is_pseudo_variety"): {"_walk", "members_of", "_walked",
                                                   "_last_level", "_levels"},
              ("chains.py", "chain_to"): {"add_element", "restricted_frobenius"}}
    found = []
    for (name, func), calls in sorted(banned.items()):
        called = set(_called_names(_top_functions(name)[func]))
        found += ["%s calls %s" % (func, c) for c in sorted(called & calls)]
    assert found == []


def test_member_walks_build_no_tree_nodes():
    # members_of, restriction_of (both through _walked) and genus-level walk
    # (member, fd, system) levels through _levels; only the tree walks build
    # RTreeNodes
    nodes = {"_walk", "children", "RTreeNode"}
    funcs = _top_functions("engine.py")
    found = sorted("%s calls %s" % (name, called)
                   for name in ("members_of", "_walked", "restriction_of",
                                "_last_level", "_levels", "_next_level")
                   for called in set(_called_names(funcs[name])) & nodes)
    assert found == []
    # the guard sees the calls it bans where they are allowed
    assert "RTreeNode" in set(_called_names(funcs["_walk"]))
    assert "RTreeNode" in set(_called_names(funcs["children"]))


def test_one_level_loop():
    # trees and member walks share the one level loop, which alone holds the
    # member budget and makes children; a second loop would have to read
    # MAX_MEMBERS or call _drop itself.  The walk that a descriptor keeps is
    # the one route to the loop besides the unkept genus level, and trees
    # read it
    funcs = _top_functions("engine.py")
    readers = sorted(name for name, f in funcs.items()
                     if any(isinstance(n, ast.Name) and n.id == "MAX_MEMBERS"
                            for n in ast.walk(f)))
    assert readers == ["_levels"]
    droppers = sorted(name for name, f in funcs.items()
                      if "_drop" in set(_called_names(f)))
    assert droppers == ["_next_level"]
    walkers = sorted(name for name, f in funcs.items()
                     if "_levels" in set(_called_names(f)))
    assert walkers == ["_last_level", "_walked"]
    walk = set(_called_names(funcs["_walk"]))
    assert "_walked" in walk and "_drop" not in walk


def test_a_bare_checkout_runs_its_tests():
    # pyproject puts src on pytest's path, so `python -m pytest` at the
    # root of a checkout needs no install and no PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_descriptors.py::TestLazyOracleNames"],
        cwd=SRC.parents[1], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " passed" in done.stdout


def test_kept_walks_are_read_not_remade():
    # the kept walk holds each member's child count, which the level loop
    # counted once, so a tree links its nodes by counts alone, the walk
    # stores the counts it is given, and a view's walk is cut from its family's
    # without a level, a child or a kernel of its own; the member map gives
    # the cut its start, so the cut searches for nothing
    funcs = _top_functions("engine.py")
    found = sorted("%s calls %s" % (name, called)
                   for name, banned in (("_walk", {"bisect_right"}),
                                        ("_walked", {"bisect_right"}),
                                        ("_cut", {"_levels", "_next_level",
                                                  "_drop", "_systems",
                                                  "bisect_left", "_bits",
                                                  "genus"}))
                   for called in set(_called_names(funcs[name])) & banned)
    assert found == []
    assert [a.arg for a in funcs["_cut"].args.args] == ["walked", "i"]
    # the guard sees the calls it bans where they are made
    assert "bisect_right" in set(_called_names(funcs["_levels"]))
    assert "bisect_right" in set(_called_names(funcs["_cut"]))
    assert {"_systems", "_next_level"} <= set(_called_names(funcs["_levels"]))
    assert "genus" in set(_called_names(funcs["_levels"]))
    # descendants passes _cut the position that the member map gives
    body = funcs["descendants"]
    positions = {t.id for n in ast.walk(body) if isinstance(n, ast.Assign)
                 and isinstance(n.value, ast.Call)
                 and ast.unparse(n.value.func) == "chains._position"
                 for t in n.targets}
    cuts = [n for n in ast.walk(body) if isinstance(n, ast.Call)
            and ast.unparse(n.func) == "_cut"]
    assert len(cuts) == 1 and ast.unparse(cuts[0].args[1]) in positions
    # and the map that the walk carries is read in one place, the lookup,
    # which fills it; is_member and _checked go through that lookup
    readers = sorted(name for module in ("chains.py", "engine.py", "cli.py")
                     for name, f in _top_functions(module).items() if _reads_the_map(f))
    assert readers == ["_position"]
    chains_funcs = _top_functions("chains.py")
    for name in ("is_member", "_checked"):
        assert "_position" in set(_called_names(chains_funcs[name]))
    # the guard sees the map taken out of a walk by index or by name
    for line in ("walked[6].get(m)", "desc._walked[-1]", "*_, by = walked",
                 "_, mem, _, _, _, _, by = walked"):
        assert _reads_the_map(ast.parse(line)), line
    assert not _reads_the_map(ast.parse("bound, mem, fds, xs, counts, _, _ = walked"))


def _bit_arithmetic(node):
    """Each read of a .key, .mask or .conductor and each << under node, by line."""
    return ["%d: %s" % (n.lineno, ast.unparse(n)) for n in ast.walk(node)
            if (isinstance(n, ast.Attribute) and n.attr in ("key", "mask", "conductor"))
            or (isinstance(n, (ast.BinOp, ast.AugAssign))
                and isinstance(n.op, ast.LShift))]


def test_the_engine_does_no_bit_arithmetic_on_members():
    # a member's bits belong to core: restriction hands core the kept
    # walk's members, and the engine reads no key, conductor or shifted
    # bit of its own
    engine = ast.parse((SRC / "engine.py").read_text())
    assert _bit_arithmetic(engine) == []
    # the guard sees the reads and shifts it bans
    for line in ("w = mem[0].conductor", "s.key & u", "s.mask & u", "1 << c", "x <<= 1"):
        assert _bit_arithmetic(ast.parse(line)) != [], line
    assert _bit_arithmetic(ast.parse("x = a.masks >> 1")) == []
    assert _bit_arithmetic(ast.parse("x = a.sort_key()")) == []


def _second_representation(tree):
    """Each read of .mask and each function named for a conversion between
    a mask and a key, under tree, by line."""
    return ["%d: %s" % (n.lineno, getattr(n, "name", None) or ast.unparse(n))
            for n in ast.walk(tree)
            if (isinstance(n, ast.Attribute) and n.attr == "mask")
            or (isinstance(n, ast.FunctionDef)
                and n.name in ("_canon", "_key", "_from_key", "_below"))]


def test_a_semigroup_has_one_representation():
    # a NumSG is its key alone: no module reads a mask or converts one
    # to a key and back, and the key and the msg memo are its only slots
    found = ["%s:%s" % (path.name, where) for path in sorted(SRC.glob("*.py"))
             for where in _second_representation(ast.parse(path.read_text()))]
    assert found == []
    assert rvar.NumSG.__slots__ == ("key", "_msg")
    # the guard sees a mask read and a conversion helper
    for line in ("m = s.mask", "def _canon(mask, top):\n    pass",
                 "def _below(s, top):\n    pass"):
        assert _second_representation(ast.parse(line)) != [], line


def _reads_the_map(node):
    """Whether the code under node takes the member map out of a kept walk:
    the last of seven fields, by index or by an unpacking that names it."""
    for n in ast.walk(node):
        if isinstance(n, ast.Subscript) and "walk" in ast.unparse(n.value) and (
                ast.unparse(n.slice) in ("6", "-1")):
            return True
        # a call such as _walked(desc, bound) gives the fields, not the walk
        if (isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Tuple)
                and not isinstance(n.value, ast.Call) and "walk" in ast.unparse(n.value)
                and ast.unparse(n.targets[0].elts[-1]) != "_"):
            return True
    return False


def _stack_poppers(tree):
    """The functions and methods of tree that pop a list, by name."""
    return sorted(f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                          and n.func.attr == "pop" for n in ast.walk(f)))


def _named(body, name):
    return next(n for n in body if getattr(n, "name", None) == name)


def test_one_tree_writer():
    # a node's repr and a tree's JSON are one explicit-stack writer with two
    # pairs of head and tail; besides it only tree_vertices keeps a stack
    engine, cli = (ast.parse((SRC / name).read_text()) for name in ("engine.py", "cli.py"))
    assert _stack_poppers(engine) == ["_written", "tree_vertices"]
    assert _stack_poppers(cli) == []
    for f in (_named(_named(engine.body, "RTreeNode").body, "__repr__"),
              _named(cli.body, "_tree_json")):
        assert "_written" in set(_called_names(f)), f.name
    # the guard sees a second copy of the writer
    written = _named(engine.body, "_written")
    written.name = "_tree_json"
    cli.body.append(written)
    assert _stack_poppers(cli) == ["_tree_json"]


def _bound_names(node):
    """The names that a module-level import statement binds."""
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        else:
            yield alias.name.split(".")[0]


def test_no_unused_imports():
    # every name a module imports at module level is used in that module;
    # the package root imports only to re-export, so it is exempt
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {name: node.lineno for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for name in _bound_names(node)}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        found += ["%s:%d %s" % (path.name, line, name)
                  for name, line in sorted(imported.items()) if name not in used]
    assert found == []


def test_an_interval_is_no_family_of_its_own():
    # Interval(lo, hi) builds Restricted(msg(lo), hi), and descendants()
    # builds a Restricted or Generated family, so no module keeps a class or
    # an isinstance branch for an interval or a view beside those two
    classes = {n.name for n in ast.parse((SRC / "descriptors.py").read_text()).body
               if isinstance(n, ast.ClassDef)}
    assert {"Restricted", "Generated"} <= classes
    assert not {"Interval", "Descendants"} & classes
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and any(k in ast.unparse(node.args[1])
                            for k in ("Interval", "Descendants"))):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_the_kind_is_decided_once():
    # a family's kernel is the one place that knows what its kind does, so
    # only the maximum and the kernel's choice branch on the kind; the
    # oracle is the reference, so it keeps its own branches
    kinds = {"Restricted", "Generated"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance"
                        and kinds & {n.id for n in ast.walk(node.args[1])
                                     if isinstance(n, ast.Name)}):
                    found.append((path.name, getattr(top, "name", None)))
    assert sorted(found) == [("chains.py", "_systems"), ("chains.py", "_systems"),
                             ("descriptors.py", "delta_of"),
                             ("descriptors.py", "delta_of")]
    engine = ast.parse((SRC / "engine.py").read_text())
    assert not kinds & {name for node in ast.walk(engine)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        for name in _bound_names(node)}


def _registrations(tree):
    """(unregistered, names) over the module-level _cmd_* handlers of tree:
    the handlers that do not carry exactly one @_command(name, ...), and the
    subcommand names of those decorators, in order."""
    unregistered, names = [], []
    for f in tree.body:
        if isinstance(f, ast.FunctionDef) and f.name.startswith("_cmd_"):
            regs = [d for d in f.decorator_list if isinstance(d, ast.Call)
                    and ast.unparse(d.func) == "_command"]
            if len(regs) != 1:
                unregistered.append(f.name)
            names += [d.args[0].value for d in regs]
    return unregistered, names


def test_a_subcommand_is_declared_once_beside_its_handler():
    # each handler registers its own name, help and arguments, and the
    # parser is one loop over the registry that names no subcommand
    tree = ast.parse((SRC / "cli.py").read_text())
    unregistered, names = _registrations(tree)
    assert unregistered == []
    assert len(names) == len(set(names)) == 13
    build = _top_functions("cli.py")["build_parser"]
    literals = {n.value for n in ast.walk(build) if isinstance(n, ast.Constant)}
    assert not literals & set(names)
    from rvar import cli
    handlers = [f.name for f in tree.body if getattr(f, "name", "").startswith("_cmd_")]
    assert [(name, h.__name__) for name, _, _, h in cli._COMMANDS] == list(
        zip(names, handlers))
    # the guard sees a handler that lost its registration
    handler = next(f for f in tree.body if getattr(f, "name", None) == "_cmd_tree")
    handler.decorator_list = []
    assert _registrations(tree) == (["_cmd_tree"], [n for n in names if n != "tree"])


def test_the_sources_keep_to_the_oldest_supported_python():
    # pyproject admits Python 3.10, and the tests may run on a newer one, so
    # the grammar of the floor is held here
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in pyproject
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 8
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    # the guard sees syntax that 3.10 lacks
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))


def _capacity_refusals(tree):
    """The functions of tree that construct CapacityExceeded, by name."""
    return sorted(f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  and "CapacityExceeded" in set(_called_names(f)))


def test_one_budget_refusal():
    # the sieves, the walk and the chain refuse past their limits through
    # core._capped, so a refusal is worded and raised in one place
    found = ["%s:%s" % (path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in _capacity_refusals(ast.parse(path.read_text()))]
    assert found == ["core.py:_capped"]
    for module, func in (("core.py", "from_generators"), ("closures.py", "variety_closure"),
                         ("engine.py", "_levels"), ("chains.py", "chain_to")):
        assert "_capped" in set(_called_names(_top_functions(module)[func])), func
    # the guard sees a refusal raised in another function
    line = "def f(n):\n    if n > 1:\n        raise CapacityExceeded('x')"
    assert _capacity_refusals(ast.parse(line)) == ["f"]
