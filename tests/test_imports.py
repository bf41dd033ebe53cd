"""Every name a ``compactpf`` module imports is one it uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "compactpf"


def _imported(tree):
    """{bound name: line} of every name the module's imports bind."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_every_imported_name_is_used():
    unused = []
    # __init__.py imports only to re-export
    for path in sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported(tree).items()
                   if name not in used]
    assert unused == []
