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


def calls_by_name(searched: dict) -> dict:
    """Per called name, the (positions, keywords) of each call: how many
    positional arguments it passes and the keywords it names.  A starred
    argument reaches every position and a ** mapping (keyword None) every
    keyword."""
    calls = {}
    for source in searched.values():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positions = math.inf if starred else len(node.args)
            calls.setdefault(name, []).append((positions, {k.arg for k in node.keywords}))
    return calls


def defaulted_parameters(defined: dict):
    """(where, function name, parameter, position) of each defaulted
    parameter of the functions and methods in `defined`, the position being
    the number of positional arguments a call needs to set it (a method's
    positions start after self or cls), inf for a keyword-only one."""
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
            for name, needed in defaulted:
                yield f"{pathlib.Path(path).name}:{node.lineno} {node.name}({name})", node.name, name, needed


def _sets(call, name: str, needed) -> bool:
    positions, keywords = call
    return name in keywords or None in keywords or positions >= needed


def unset_parameters(defined: dict, searched: dict) -> list:
    """Defaulted parameters of the functions and methods in `defined` that no
    call in `searched`, matched by name, sets by keyword or by position."""
    calls = calls_by_name(searched)
    return [
        where
        for where, func, name, needed in defaulted_parameters(defined)
        if not any(_sets(call, name, needed) for call in calls.get(func, ()))
    ]


def overridden_defaults(defined: dict, searched: dict) -> list:
    """Defaulted parameters of the functions and methods in `defined` that
    every call in `searched`, matched by name, sets: defaults never used."""
    calls = calls_by_name(searched)
    return [
        where
        for where, func, name, needed in defaulted_parameters(defined)
        if calls.get(func) and all(_sets(call, name, needed) for call in calls[func])
    ]


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


def test_checker_finds_overridden_defaults():
    source = (
        "def draw(n, seed=0, dim=8, *, cap=1):\n    return n\n\n"
        "class Box:\n    def read(self, at, floor=0):\n        return at\n\n"
        "def idle(n=1):\n    return n\n\n"
        "draw(1, 2, cap=3)\ndraw(1, dim=4, seed=5, cap=6)\nBox().read(1, 2)\nBox().read(*[1, 2])\n"
    )
    assert overridden_defaults({"m.py": source}, {"m.py": source}) == [
        "m.py:1 draw(seed)",
        "m.py:1 draw(cap)",
        "m.py:5 read(floor)",
    ]


def test_every_default_is_used():
    defined, searched = _searched_and_defined()
    assert overridden_defaults(defined, searched) == []


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


def test_one_version_string():
    # the version is written once in the package and once in pyproject,
    # and every report names the package's
    tomllib = pytest.importorskip("tomllib")
    import sftops
    from sftops import report
    from sftops import scenarios as sn

    version = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["version"]
    assert version == sftops.__version__
    rep = report.skeleton(sn.REFERENCE_SCENARIOS["full-2-shift"](), "validate")
    assert rep["tool_version"] == f"sftops {version}"


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


def lcm_callers(source: str) -> list:
    """The top-level function or class around each call of a function named
    lcm (math.lcm, np.lcm or an imported lcm), None at module level."""
    out = []
    for node in ast.parse(source).body:
        where = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "lcm":
                    out.append(where)
    return out


def test_checker_finds_lcm_callers():
    source = (
        "import math\nfrom math import lcm\n"
        "class W:\n    def __init__(self, a):\n        self.n = math.lcm(*a)\n"
        "def f(a):\n    return lcm(a, 2) + np.lcm(a, 3)\n"
        "N = math.lcm(2, 3)\n"
    )
    assert lcm_callers(source) == ["W", "f", "f", None]


def test_window_margins_come_from_one_place():
    # which coordinates settle a set of points is decided by sft.Window;
    # build_point keeps its own raw window
    callers = {f"{path.stem}.{where}" for path in SRC.glob("*.py") for where in lcm_callers(path.read_text())}
    assert callers == {"sft.Window", "sft.build_point"}


def function_names(source: str) -> set:
    """The names of every function and method a module defines, at any depth."""
    return {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_checkers_find_definitions_and_calls():
    source = (
        "from .sft import in_stable_set\n"
        "class F:\n    def metric_exponents(self):\n        def inner():\n            pass\n"
        "def go(x):\n    return sft.in_unstable_set(x) and in_stable_set(x)\n"
    )
    assert function_names(source) == {"metric_exponents", "inner", "go"}
    assert set(calls_by_name({"m.py": source})) == {"in_unstable_set", "in_stable_set"}


def method_callers(source: str, names) -> list:
    """The top-level function or class around each call of a method named
    in `names`, None at module level; calls on the math and numpy modules
    (math.floor) do not count."""
    out = []
    for node in ast.parse(source).body:
        where = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) and sub.func.attr in names:
                receiver = sub.func.value
                if not (isinstance(receiver, ast.Name) and receiver.id in ("math", "np")):
                    out.append(where)
    return out


def test_checker_finds_method_callers():
    source = (
        "import math\n"
        "class F:\n    def d(self, i):\n        return (self.rows[i] != 0).argmax(axis=-1) + math.floor(i)\n"
        "def pool(p):\n    return p.argmax() + np.argmax(p)\n"
        "X = w.argmax()\n"
    )
    assert method_callers(source, {"argmax"}) == ["F", "pool", None]


def name_readers(source: str, name: str) -> list:
    """The top-level function or class around each use of the bare name
    `name`, None at module level; an import binds it and does not count."""
    out = []
    for node in ast.parse(source).body:
        where = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        out += [where for sub in ast.walk(node) if isinstance(sub, ast.Name) and sub.id == name]
    return out


def test_checker_finds_name_readers():
    source = (
        "import numpy as np\n"
        "class M:\n    def as_array(self) -> np.ndarray:\n        return np.array(self.entries)\n"
        "def entropy(m):\n    return np.eye(m.n)\n"
        "ROWS = np.zeros(3)\n"
        "def depth(w):\n    return w.np + len(w)\n"
    )
    assert name_readers(source, "np") == ["M", "M", "entropy", None]


def test_one_implementation_per_groupoid_construct():
    # a bisection acts only through the word kernel in functions, and the
    # two-branch metric is only groupoid.ElementFamily: the point-level
    # readings of both are the tests' oracles
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    names = {stem: function_names(source) for stem, source in sources.items()}
    for stem, defined in names.items():
        assert not {"in_domain", "_holonomy_splice"} & defined, stem
        assert not [name for name in defined if name.endswith("metric_exponent")], stem
    assert [stem for stem, defined in names.items() if "elements_of" in defined] == ["functions"]
    local_sets = {"in_stable_set", "in_unstable_set"}
    assert [stem for stem, source in sources.items() if stem != "sft" and local_sets & calls_by_name({stem: source}).keys()] == []
    # one path from rows to exponents: only groupoid.ElementFamily finds
    # where two rows first differ, and every metric question indexes its
    # close table (sampling.stable_pairs reads tail codes)
    readers = {f"{stem}.{where}" for stem, source in sources.items() for where in method_callers(source, {"argmax"})}
    assert readers == {"groupoid.ElementFamily"}


def attribute_readers(source: str, attr: str) -> list:
    """The qualified name (Class.method) of the function or class around
    each read of an attribute named `attr`, None at module level; a store
    does not count."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name if where is None else f"{where}.{child.name}"
            if isinstance(child, ast.Attribute) and child.attr == attr and isinstance(child.ctx, ast.Load):
                out.append(where)
            visit(child, inner)

    visit(ast.parse(source), None)
    return out


def test_checker_finds_attribute_readers():
    source = (
        "class Term:\n    def marks(self):\n        return self.support.threshold + 1\n"
        "    @property\n    def threshold(self):\n        return self.radius_exp + 1\n"
        "def plan(bs):\n    def inner():\n        return bs.threshold\n    return inner\n"
        "T = bs.threshold\nbs.threshold = 2\n"
    )
    assert attribute_readers(source, "threshold") == ["Term.marks", "plan.inner", None]


def test_one_layout_per_term():
    # a term's threshold, time, depth and side become the coordinates of
    # its domain disk, holonomy and profile word in functions.Term.marks
    # alone; _compose_stable reads two base sets' thresholds to compose them
    readers = {
        f"{path.stem}.{where}" for path in SRC.glob("*.py") for where in attribute_readers(path.read_text(), "threshold")
    }
    assert readers == {"functions.Term.marks", "functions._compose_stable"}


def test_sft_uses_numpy_only_for_the_entropy():
    # sft's points and windows are bytes and integers: numpy serves the
    # Perron root alone, through the matrix as an array
    assert set(name_readers((SRC / "sft.py").read_text(), "np")) == {"entropy", "TransitionMatrix"}


def test_checker_finds_draw_callers():
    source = (
        "def draws(rng, bounds):\n    return rng.integers(bounds)\n"
        "class Star:\n    def pick(self, g):\n        return np.random.default_rng(0).integers(3) + g.permutation(4)\n"
        "ORDER = np.random.permutation(5)\n"
    )
    assert method_callers(source, {"integers"}) == ["draws", "Star"]
    assert method_callers(source, {"permutation"}) == ["Star", None]


def test_one_place_draws_from_a_generator():
    # the audits draw bounded integers only through sampling.draws, one
    # chunk at a time, and the only permutation is stable_pairs'
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    for names, where in (({"integers"}, ["sampling.draws"]), ({"permutation"}, ["sampling.stable_pairs"])):
        callers = [f"{stem}.{name}" for stem, source in sorted(sources.items()) for name in method_callers(source, names)]
        assert callers == where, names


# the modules every command loads, and those each loads besides
COMMON_MODULES = ("cli", "errors", "functions", "groupoid", "report", "scenarios", "sft", "slotted")
COMMAND_MODULES = {
    "validate": ("cmd_validate",),
    "metric-audit": ("cmd_metric_audit", "sampling"),
    "auf-audit": ("cmd_auf_audit", "aufmetric", "sampling"),
    "fredholm": ("cmd_fredholm", "fredholm", "schatten"),
    "spectrum": ("cmd_spectrum", "forked", "schatten"),
}


def test_cli_import_loads_no_command_module():
    # each command imports the modules only it uses; with no bytecode cache
    # (PYTHONDONTWRITEBYTECODE) every module is compiled at each start
    code = "import sys, sftops.cli; print(sorted(m for m in sys.modules if m.startswith('sftops.')))"
    loaded = set(_fresh_import(code).strip().strip("[]").replace("'", "").split(", "))
    assert loaded == {f"sftops.{name}" for name in COMMON_MODULES}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_its_own_modules(tmp_path, command):
    # counted, not timed: the sftops modules a command compiles, and no
    # dataclasses (building a dataclass compiles generated code, 0.3-1 ms
    # a class at every start)
    argv = [command, "--scenario", "full-2-shift", "--out", str(tmp_path), "--samples", "200", "--window=-2..4"]
    code = (
        "import contextlib, io, sys\n"
        "from sftops import cli\n"
        f"with contextlib.redirect_stderr(io.StringIO()):\n    assert cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('sftops.')))\n"
        "print('dataclasses' in sys.modules)\n"
    )
    modules, dataclasses_loaded = _fresh_import(code).strip().splitlines()
    expected = sorted(f"sftops.{name}" for name in COMMON_MODULES + COMMAND_MODULES[command])
    assert modules == repr(expected)
    assert dataclasses_loaded == "False"


def _stores_parameter(stmt, params) -> bool:
    """stmt is self.p = p or object.__setattr__(self, "p", p) for a parameter p."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
        return (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and isinstance(value, ast.Name)
            and value.id == target.attr
            and value.id in params
        )
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        return (
            ast.unparse(call.func) == "object.__setattr__"
            and len(call.args) == 3
            and ast.unparse(call.args[0]) == "self"
            and isinstance(call.args[1], ast.Constant)
            and isinstance(call.args[2], ast.Name)
            and call.args[1].value == call.args[2].id
            and call.args[2].id in params
        )
    return False


def storing_only_inits(source: str) -> list:
    """The Slotted or Frozen subclasses whose __init__ only stores its
    parameters in the fields of the same names (a docstring aside).  An
    __init__ with a defaulted parameter supplies the default, which
    Slotted's constructor does not, and does not count."""
    out = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.ClassDef) and {ast.unparse(b) for b in node.bases} & {"Slotted", "Frozen"}):
            continue
        for sub in node.body:
            if not (isinstance(sub, ast.FunctionDef) and sub.name == "__init__"):
                continue
            args = sub.args
            if args.defaults or any(args.kw_defaults):
                continue
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            body = [b for b in sub.body if not (isinstance(b, ast.Expr) and isinstance(b.value, ast.Constant))]
            if body and all(_stores_parameter(b, params) for b in body):
                out.append(node.name)
    return out


def test_checker_finds_storing_only_inits():
    source = (
        "class A(Slotted):\n    def __init__(self, x, y):\n        'doc'\n        self.x = x\n        self.y = y\n"
        "class B(Frozen):\n    def __init__(self, x):\n        object.__setattr__(self, 'x', x)\n"
        "class C(Frozen):\n    def __init__(self, x):\n        super().__init__(bytes(x))\n"
        "class D(Slotted):\n    def __init__(self, x, y):\n        self.x = x\n        self.y = []\n"
        "class F(Slotted):\n    def __init__(self, x=None):\n        self.x = x\n"
        "class E:\n    def __init__(self, x):\n        self.x = x\n"
    )
    assert storing_only_inits(source) == ["A", "B"]


def test_no_init_only_stores_its_arguments():
    # Slotted's constructor stores the fields by position or by name
    found = {path.name: storing_only_inits(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: classes for name, classes in found.items() if classes} == {}


def object_setattr_lines(source: str) -> list:
    """The lines that read object.__setattr__."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__" and ast.unparse(node.value) == "object"
    )


def test_only_slotted_sets_frozen_fields():
    # a frozen class sets its fields through Slotted's constructor (or, on
    # the hot path, the slots' own setters); the docstring's mention does
    # not count
    assert object_setattr_lines("'object.__setattr__'\nobject.__setattr__(a, 'b', 1)\nf = object.__setattr__\n") == [2, 3]
    users = sorted(path.name for path in SRC.glob("*.py") if object_setattr_lines(path.read_text()))
    assert users == ["slotted.py"]


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


def test_scenarios_are_validated_in_one_place():
    # a scenario is validated once, when load_scenario has merged the
    # command line's overrides into the file's fields
    callers = {path.stem: method_callers(path.read_text(), {"validate"}) for path in SRC.glob("*.py")}
    assert {stem: where for stem, where in callers.items() if where} == {"scenarios": ["load_scenario"]}


def attribute_stores(source: str) -> list:
    """The lines that assign, augment or delete an attribute, or call setattr."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
    )


def test_checker_finds_attribute_stores():
    source = "a.b = 1\nx = a.b\na.c += 2\nsetattr(a, 'd', 3)\nx, a.e = 1, 2\ndel a.f\nf(a.g)\n"
    assert attribute_stores(source) == [1, 3, 4, 5, 6]


def test_the_command_layer_edits_no_loaded_scenario():
    # main and the command bodies store no attribute, so no scenario field
    # is set after load_scenario has validated it
    layer = [SRC / "cli.py", SRC / "report.py", *sorted(SRC.glob("cmd_*.py"))]
    assert len(layer) == 7
    assert {path.name: attribute_stores(path.read_text()) for path in layer} == {path.name: [] for path in layer}
