"""Every public name of bicheb is used by the program or by the benchmark.

A name in ``bicheb.__all__`` passes when a module of ``src/bicheb`` other
than ``__init__.py`` reads it, as a name or an attribute, outside the
name's own top-level definition, or when a file of ``perfbench/`` names it,
as an identifier or a string.  A name that only the tests call belongs in
the tests, as an oracle or not at all.
"""

import ast
from pathlib import Path

import bicheb

ROOT = Path(__file__).resolve().parent.parent


def _defines(stmt: ast.stmt, name: str) -> bool:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _read(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _bench_words() -> set[str]:
    words = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        words |= _read(tree)
        words.update(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    return words


def test_every_public_name_is_used_outside_the_tests():
    statements = [
        (stmt, _read(stmt))
        for path in (ROOT / "src" / "bicheb").glob("*.py")
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text()).body
    ]
    bench = _bench_words()
    unused = [
        name
        for name in bicheb.__all__
        if name not in bench
        and not any(name in read and not _defines(stmt, name) for stmt, read in statements)
    ]
    assert unused == []
