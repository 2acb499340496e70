"""Every imported name in the package and its tests is used, and the
package exports exactly the names its `__init__.py` re-exports.

`__init__.py` is skipped by the unused-import check: it imports names
only to re-export them.
"""

import ast
from pathlib import Path

import blockprune

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in [*(ROOT / "src" / "blockprune").glob("*.py"),
                *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}"
            for line, name in sorted((v, k) for k, v in imported.items())
            if name not in used]


def test_checker_flags_an_unused_name():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") \
        == ["line 1: os", "line 2: b"]


def test_no_unused_imports():
    assert len(MODULES) > 20
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text())
             for p in MODULES}
    assert {path: names for path, names in found.items() if names} == {}


def test_public_surface_is_what_init_imports():
    # the names __init__.py binds from its own modules; a name dropped
    # from a module and from these imports cannot linger in __all__
    tree = ast.parse((ROOT / "src" / "blockprune" / "__init__.py").read_text())
    bound = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names}
    assert len(blockprune.__all__) == len(set(blockprune.__all__))
    assert set(blockprune.__all__) == bound | {"__version__"}
    for name in blockprune.__all__:
        assert getattr(blockprune, name) is not None, name
