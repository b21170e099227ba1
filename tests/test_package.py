import ast
import pkgutil
from pathlib import Path

import pytest

import graphreduce

MODULES = ["graphreduce"] + [
    f"graphreduce.{m.name}" for m in pkgutil.iter_modules(graphreduce.__path__)
]
SRC = Path(graphreduce.__file__).parent


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_public_name(module):
    # A stale `__all__` entry fails `import *` with AttributeError.
    exec(f"from {module} import *", {})


# Imported names that no code in their module reads, each kept on purpose:
# perfbench/tracer.py patches both by these names in these modules.
UNUSED_IMPORTS_ALLOWED = {
    ("reducer", "contraction_update"),
    ("sketch", "symmetrized_laplacian"),
}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # Annotations are parsed as code under `from __future__ import annotations`,
    # so a name read only in one is a Name node too; `__all__` re-exports.
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            read.update(ast.literal_eval(node.value))
    unused = sorted(
        f"{name} (line {line})" for name, line in imported.items()
        if name not in read and (path.stem, name) not in UNUSED_IMPORTS_ALLOWED
    )
    assert not unused, f"{path.name} imports names it never reads: {unused}"
