"""Every name a package module imports at module level is used in it.

The project has no linter, so this stands in for an unused-import check on
src/scmalink. The package's __init__.py re-exports names and is skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "scmalink"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of source that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom . import data_path, core\nfrom a.b import c\nnp.zeros(core.K)\n"
    assert unused_imports(source) == ["c", "data_path", "os"]


def test_modules_found():
    assert {"cli.py", "core.py", "mpa.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
