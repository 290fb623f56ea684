"""Every public top-level name of the package is used by the package or the
benchmark: a library function that only tests reach either serves a claim
the tests check, and is listed below with the reason, or moves into
``tests/``.  Every name a module exports resolves, those the benchmark
reads under the homes they had before the residues and the Morse/Smith
engine moved into modules of their own included."""

import ast
import importlib
import subprocess
import sys
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


def test_every_name_in_all_resolves():
    for path in PACKAGE.glob("*.py"):
        name = "phangeo" if path.stem == "__init__" else f"phangeo.{path.stem}"
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert getattr(module, attr, None) is not None, f"{name}.{attr}"


def test_moved_engine_names_resolve_to_their_new_homes():
    """``bench/trace_cli.py`` wraps these under their old homes, which
    resolve them on first access; other names stay missing."""
    from phangeo import homology, morse, phan, residues

    assert phan.delta_restriction is residues.delta_restriction
    assert homology.smith_invariant_factors is morse.smith_invariant_factors
    assert homology.boundary_matrices is morse.boundary_matrices
    assert not hasattr(phan, "residue_below") and not hasattr(homology, "morse_complex")


def test_importing_the_cli_loads_neither_engine():
    script = ("import sys, phangeo.cli\n"
              "print(sorted({'phangeo.residues', 'phangeo.morse'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
