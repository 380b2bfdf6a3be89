"""Every module-level name in splitlab is read somewhere in the repository."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Where a read counts: the package, its tests, demos, benchmark and tools.
READERS = ("src", "tests", "demos", "perfbench", "tools")


def defined_names(tree: ast.Module):
    """The functions, classes and names a module binds at its top level,
    less dunders such as __all__, which Python itself reads."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets
                        if isinstance(t, ast.Name) and not t.id.startswith("__"))


def read_names(tree: ast.Module):
    """Every name a module reads: loaded names, attributes, imported names and
    string constants, which getattr-style lookups and __all__ use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_level_name_is_read():
    read = {name for folder in READERS for path in (ROOT / folder).rglob("*.py")
            for name in read_names(parse(path))}
    unread = [f"{path.stem}.{name}" for path in sorted((ROOT / "src" / "splitlab").glob("*.py"))
              for name in defined_names(parse(path)) if name not in read]
    assert unread == []
