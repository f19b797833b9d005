import ast
from pathlib import Path

import pytest

import dpsrk

# __init__ imports names to re-export them
MODULES = sorted(p for p in Path(dpsrk.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_every_public_name_resolves():
    # getattr also reaches the sampler's names, which are served on first use
    assert set(dpsrk._MONTECARLO_NAMES) <= set(dpsrk.__all__)
    for name in dpsrk.__all__:
        getattr(dpsrk, name)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
