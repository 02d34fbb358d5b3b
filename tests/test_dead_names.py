"""Every top-level def, class and constant of the package is read somewhere
in `src/`, `tests/` or `perfbench/`: a name nothing reads is dead code.

A read is a `Name` or `Attribute` node that loads the name, or a part of an
attribute path the benchmark's tracer wraps by name (`tracer.SPANS`).
Dunder names are exempt.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hjminimax"


def _defined(tree):
    """Names a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _read(tree):
    """Names a module loads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _traced():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {part for _, path, _, _ in tracer.SPANS for part in path.split(".")}


def test_every_top_level_name_is_read():
    read = _traced()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            read.update(_read(ast.parse(path.read_text(), filename=str(path))))
    dead = sorted(f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
                  for name in _defined(ast.parse(path.read_text()))
                  if name not in read
                  and not (name.startswith("__") and name.endswith("__")))
    assert not dead, f"defined but never read: {dead}"
