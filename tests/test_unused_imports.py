"""Every name that a module of ``src/fdo`` or ``tests`` imports is read
somewhere in that module (stdlib ``ast``, no linter needed)."""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/fdo/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source):
    """(line, name) of each imported name that no Name node reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import math\nimport os.path as p\n"
                          "from a import b, c\nfrom __future__ import x\n"
                          "c(math)\n") == [(2, "p"), (3, "b")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
