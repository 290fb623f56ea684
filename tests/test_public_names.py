"""Every public top-level name of the package is used by the package or the
benchmark: a library function that only tests reach either serves a claim
the tests check, and is listed below with the reason, or moves into
``tests/``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "phangeo"

# module.name -> why the name stays public although only tests reach it
TEST_ONLY = {
    "specfile.dump_family": "the public spec writer, the inverse of load_family",
    "masks.listed_mask": "the mask definition that the swept and meet masks are checked against",
}


def _public_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def _references(tree: ast.Module) -> set[str]:
    """Names read as a variable or as an attribute; imports and the
    strings of ``__all__`` are not uses."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_is_used_outside_the_tests():
    used = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        used |= _references(ast.parse(path.read_text()))
    unused = set()
    for path in PACKAGE.glob("*.py"):
        for name in _public_definitions(ast.parse(path.read_text())):
            if name not in used:
                unused.add(f"{path.stem}.{name}")
    assert unused == set(TEST_ONLY), sorted(unused ^ set(TEST_ONLY))
