"""Every name a package module imports at module level is used in it, and
every module-level private helper is read somewhere in the package.

The project has no linter, so this stands in for unused-import and
dead-code checks on src/scmalink. The package's __init__.py re-exports names
and is skipped by the import check.
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


def dead_private_names(sources: dict) -> list[str]:
    """'module:name' of each module-level _-prefixed function, class or
    constant of sources (module name -> source) that no module reads."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined |= {(module, n) for n in names if n.startswith("_") and not n.startswith("__")}
        read |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_checker_finds_a_dead_private_name():
    sources = {"a.py": "_LIVE = 1\n_DEAD: int = 2\n__all__ = []\ndef _helper():\n    return _LIVE\n"
                       "class _Unused:\n    pass\n",
               "b.py": "from .a import _helper\n_helper()\n"}
    assert dead_private_names(sources) == ["a.py:_DEAD", "a.py:_Unused"]


def test_no_dead_private_name():
    assert dead_private_names({p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}) == []
