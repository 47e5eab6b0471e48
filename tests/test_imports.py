"""Every name a package module imports at module level is used in it, every
module-level private helper is read somewhere in the package, every
parameter of every function is read in that function's body, a private name
is imported only from the module that defines it, and no module-level name
is defined in two modules.

The project has no linter, so this stands in for unused-import,
unused-argument, dead-code and duplicate-definition checks on src/scmalink.
The package's __init__.py re-exports names and is skipped by the import check.
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


def defined_names(tree: ast.Module) -> list[str]:
    """Names of the module-level functions, classes and assigned constants of tree."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def dead_private_names(sources: dict) -> list[str]:
    """'module:name' of each module-level _-prefixed function, class or
    constant of sources (module name -> source) that no module reads."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined |= {(module, n) for n in defined_names(tree) if is_private(n)}
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


def borrowed_private_imports(sources: dict) -> list[str]:
    """'module: name from target' for each _-prefixed name that a module of
    sources imports, relative to the package, from a module that does not
    define it but imports it in turn."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            target = f"{node.module}.py"
            found += [f"{module}: {a.name} from {target}" for a in node.names
                      if is_private(a.name) and a.name not in defined_names(trees[target])]
    return sorted(found)


def test_checker_finds_a_borrowed_private_import():
    sources = {"a.py": "class _Own:\n    pass\n",
               "b.py": "from .a import _Own\n",
               "c.py": "from .b import _Own\nfrom .a import _Own as _Alias, Public\n"}
    assert borrowed_private_imports(sources) == ["c.py: _Own from b.py"]


def test_no_borrowed_private_import():
    assert borrowed_private_imports({p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}) == []


def names_defined_twice(sources: dict) -> list[str]:
    """'name: modules' for each module-level function, class or constant
    that more than one module of sources defines."""
    homes = {}
    for module, source in sorted(sources.items()):
        for name in defined_names(ast.parse(source)):
            homes.setdefault(name, []).append(module)
    return sorted(f"{name}: {', '.join(modules)}" for name, modules in homes.items() if len(modules) > 1)


def test_checker_finds_a_name_defined_twice():
    sources = {"a.py": "LIMIT = 1\nclass _Buffer:\n    pass\ndef helper():\n    pass\n",
               "b.py": "from .a import LIMIT\nLIMIT: int = 2\ndef _Buffer():\n    pass\n",
               "c.py": "def f():\n    helper = 3\n    return helper\n"}
    assert names_defined_twice(sources) == ["LIMIT: a.py, b.py", "_Buffer: a.py, b.py"]


def test_no_name_defined_twice():
    assert names_defined_twice({p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}) == []


def unused_parameters(source: str) -> list[str]:
    """'function:parameter' for each parameter of a function or lambda in
    source that its body never reads. A nested function's reads count for
    the functions around it; defaults and decorators are not the body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{getattr(node, 'name', '<lambda>')}:{p}" for p in params if p not in read]
    return sorted(found)


def test_checker_finds_an_unused_parameter():
    source = ("def f(a, b, *args, c=1, **kw):\n    return a + args[0] + kw['x']\n"
              "class C:\n    def m(self, x=b):\n        return 1\n"
              "def outer(y):\n    def inner(z):\n        return y\n    return inner\n"
              "g = lambda u, v: u\n")
    assert unused_parameters(source) == ["<lambda>:v", "f:b", "f:c", "inner:z", "m:self", "m:x"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_parameter(module):
    assert unused_parameters((SRC / module).read_text(encoding="utf-8")) == []
