"""Every name a library module imports is used by that module."""

import ast
from pathlib import Path

import photonflow


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_library_modules_use_every_import():
    modules = sorted(Path(photonflow.__file__).parent.glob("*.py"))
    assert [bad for path in modules if path.name != "__init__.py"
            for bad in _unused_imports(path)] == []
