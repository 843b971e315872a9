import ast
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sftops"


def unused_imports(source: str) -> list:
    """Names a module imports and never reads (names in __all__ count as read)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_checker_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom .sft import shift, splice_at\nnp.zeros(shift)\n"
    assert unused_imports(source) == ["os (line 1)", "splice_at (line 3)"]
    assert unused_imports("from .sft import at\n__all__ = ['at']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


ROOT = SRC.parent.parent
SEARCHED = ("src", "tests", "perfbench")


def definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield sub


def name_uses(tree):
    """(name, line) of every name read, attribute and identifier-like string
    (perfbench wraps functions by their names as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def unreferenced_definitions(defined: dict, searched: dict) -> list:
    """Definitions in `defined` (path -> source) whose name is used nowhere in
    `searched` (path -> source) outside their own definition."""
    uses = {}
    for path, source in searched.items():
        for name, line in name_uses(ast.parse(source)):
            uses.setdefault(name, []).append((path, line))
    out = []
    for path, source in defined.items():
        for node in definitions(ast.parse(source)):
            outside = [
                (p, line)
                for p, line in uses.get(node.name, ())
                if not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                out.append(f"{pathlib.Path(path).name}:{node.lineno} {node.name}")
    return out


def test_checker_finds_unreferenced_definitions():
    source = (
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Box:\n    def read(self):\n        return used()\n"
        "    def __len__(self):\n        return 0\n"
        "Box\n"
    )
    searched = {"m.py": source, "t.py": "wrap(m, 'read')\n"}
    assert unreferenced_definitions({"m.py": source}, searched) == ["m.py:4 recursive"]


def _searched_and_defined():
    paths = [path for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))]
    searched = {str(path): path.read_text() for path in paths}
    defined = {str(path): path.read_text() for path in sorted(SRC.glob("*.py"))}
    return defined, searched


def test_every_definition_is_referenced():
    defined, searched = _searched_and_defined()
    assert unreferenced_definitions(defined, searched) == []


def call_settings(searched: dict):
    """Per called name: the most positional arguments any call passes, and
    the keywords the calls pass.  A starred argument reaches every position
    and a ** mapping (keyword None) every keyword."""
    reach, keywords = {}, {}
    for source in searched.values():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            reach[name] = max(reach.get(name, 0), math.inf if starred else len(node.args))
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    return reach, keywords


def unset_parameters(defined: dict, searched: dict) -> list:
    """Defaulted parameters of the functions and methods in `defined` that no
    call in `searched`, matched by name, sets by keyword or by position
    (a method's positions start after self or cls)."""
    reach, keywords = call_settings(searched)
    out = []
    for path, source in defined.items():
        tree = ast.parse(source)
        methods = {
            id(sub)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for sub in node.body
            if isinstance(sub, ast.FunctionDef)
            and not any(getattr(d, "id", None) == "staticmethod" for d in sub.decorator_list)
        }
        for node in definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            offset = 1 if id(node) in methods else 0
            defaulted = [
                (arg.arg, i + 1 - offset)
                for i, arg in enumerate(positional)
                if i >= len(positional) - len(args.defaults)
            ] + [
                (arg.arg, math.inf)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            kws = keywords.get(node.name, set())
            for name, needed in defaulted:
                if name not in kws and None not in kws and reach.get(node.name, 0) < needed:
                    out.append(f"{pathlib.Path(path).name}:{node.lineno} {node.name}({name})")
    return out


def test_checker_finds_unset_parameters():
    source = (
        "def draw(n, seed=0, dim=8):\n    return n\n\n"
        "class Box:\n    def read(self, at, floor=0):\n        return at\n\n"
        "draw(1, dim=4)\nBox().read(1, 2)\n"
    )
    assert unset_parameters({"m.py": source}, {"m.py": source}) == ["m.py:1 draw(seed)"]


def test_every_option_is_set():
    defined, searched = _searched_and_defined()
    assert unset_parameters(defined, searched) == []


def test_package_data_ships_reference_scenarios():
    # setuptools leaves a package's non-Python files out of a build unless
    # package-data names them; each pattern is a glob in the package folder
    tomllib = pytest.importorskip("tomllib")
    from sftops import scenarios as sn

    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    patterns = config.get("tool", {}).get("setuptools", {}).get("package-data", {}).get("sftops", [])
    shipped = {path for pattern in patterns for path in SRC.glob(pattern)}
    files = {pathlib.Path(load.args[0]).resolve() for load in sn.REFERENCE_SCENARIOS.values()}
    assert files and all(path.parent == SRC / "reference" and path.is_file() for path in files)
    assert files <= shipped


def _fresh_import(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_process_pool():
    # spectrum forks its one child with os.fork (about 3 ms) in
    # sftops.forked; importing multiprocessing or
    # concurrent.futures would add 20-25 ms and 2 MB to the start of every
    # command
    code = (
        "import sys, sftops.cli, sftops.forked\n"
        "print(sorted(set(sys.modules) & {'multiprocessing', 'concurrent.futures'}))"
    )
    assert _fresh_import(code).strip() == "[]"


def test_only_the_fork_helper_forks():
    # one fork implementation: the pipe, the pickles and os.fork live in
    # sftops.forked, and only spectrum's block assembly calls it
    users = sorted(path.name for path in SRC.glob("*.py") if re.search(r"os\.fork|os\.pipe|\bpickle\b", path.read_text()))
    assert users == ["forked.py"]
    callers = sorted(path.name for path in SRC.glob("*.py") if re.search(r"\bforked\.run\b", path.read_text()))
    assert callers == ["functions.py"]


def test_cli_import_loads_no_command_module():
    # each command imports the modules only it uses; with no bytecode cache
    # (PYTHONDONTWRITEBYTECODE) every module is compiled at each start
    code = "import sys, sftops.cli; print(sorted(m for m in sys.modules if m.startswith('sftops.')))"
    loaded = set(_fresh_import(code).strip().strip("[]").replace("'", "").split(", "))
    assert "sftops.cli" in loaded
    assert loaded.isdisjoint({"sftops.aufmetric", "sftops.fredholm", "sftops.sampling", "sftops.schatten"})


def unmanaged_opens(source: str) -> list:
    """(enclosing function, line) of each open or fdopen call that is not
    the context expression of a with item."""
    tree = ast.parse(source)
    managed = {id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With) for item in node.items}
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            if isinstance(child, ast.Call) and id(child) not in managed:
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("open", "fdopen"):
                    out.append((inner, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return out


def test_checker_finds_unmanaged_opens():
    source = (
        "import os\n"
        "def good(path):\n    with open(path) as f, os.fdopen(3) as g:\n        return f.read()\n"
        "def bad(path):\n    f = open(path)\n    return os.fdopen(f.fileno())\n"
        "TEXT = open('x').read()\n"
    )
    assert unmanaged_opens(source) == [("bad", 6), ("bad", 7), (None, 8)]


def test_every_file_is_opened_by_a_with():
    # the command line leaves through os._exit, which neither closes nor
    # flushes a file: every report must be closed by its with block before
    # main returns.  The one exception is the read end of forked's pipe,
    # closed in a finally before the child is reaped.
    found = {path.name: [where for where, _ in unmanaged_opens(path.read_text())] for path in sorted(SRC.glob("*.py"))}
    assert {name: where for name, where in found.items() if where} == {"forked.py": ["_fork"]}
