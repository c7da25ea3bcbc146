"""Every public name of bicheb is used by the program or by the benchmark.

A public name is one that a top-level definition of a ``src/bicheb``
module binds, without a leading underscore.  It passes when another
statement of ``src/bicheb`` reads it, as a name or an attribute, or when a
file of ``perfbench/`` names it, as an identifier or a string.  A name that
only the tests call belongs in the tests, as an oracle or not at all.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bound(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


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
        (path.stem, _bound(stmt), _read(stmt))
        for path in sorted((ROOT / "src" / "bicheb").glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    bench = _bench_words()
    unused = [
        f"{module}.{name}"
        for module, bound, _ in statements
        for name in sorted(bound)
        if not name.startswith("_")
        and name not in bench
        and not any(name in read and name not in own for _, own, read in statements)
    ]
    assert unused == []
