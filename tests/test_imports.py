"""Every imported name in the package and its tests is used, the
package exports exactly the names its `__init__.py` re-exports, and only
`errors.py` opens files.

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


def opened_files(source: str) -> list:
    """The first argument of each `open(...)` or `x.open(...)` call: the
    literal string where it is one, else its source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "open" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            arg = node.args[0] if node.args else None
            found.append(arg.value if isinstance(arg, ast.Constant)
                         else ast.unparse(arg) if arg else None)
    return found


def test_only_errors_opens_files():
    assert opened_files("open('a')\nos.open(p, 0)\nf(x.open)\n") == \
        ["a", "p"]
    package = ROOT / "src" / "blockprune"
    found = {p.name: opened_files(p.read_text())
             for p in sorted(package.glob("*.py"))}
    # the one read outside errors.py: the memory map numerics scans for
    # OpenBLAS, which a missing file only skips
    assert {name: files for name, files in found.items() if files} == {
        "errors.py": ["path", "tmp"],
        "numerics.py": ["/proc/self/maps"],
    }
