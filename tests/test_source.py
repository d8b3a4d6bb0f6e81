"""Source-level rules for the rvar package."""

import ast
import pathlib

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
