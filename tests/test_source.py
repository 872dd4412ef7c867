"""Static checks on the package source and on the shared test helpers."""

import ast
from pathlib import Path

import pytest

import ybekit

MODULES = sorted(p for p in Path(ybekit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads again."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_scan_sees_names_and_annotations():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from x import A, B as C, D\ndef f(a: A) -> C: return os.sep\n")
    assert unused_imports(source) == ["D (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imports_in_functions(source: str, name: str) -> list[str]:
    """Import statements inside a function body of the module `name`, as
    "module.function: imported (line n)", except the one that must stay
    lazy: `cli.build_parser` imports argparse only when a command line
    needs the parser (`test_a_valid_command_imports_neither_argparse_nor_gettext`)."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                what = ", ".join(alias.name for alias in node.names)
                if (name, fn.name, what) != ("cli", "build_parser", "argparse"):
                    found.append((node.lineno, fn.lineno,
                                  f"{name}.{fn.name}: {what} (line {node.lineno})"))
    return [text for *_, text in sorted(found)]


def test_function_import_scan_sees_nested_imports_and_the_one_exception():
    source = ("import os\ndef f():\n    from .x import y\n    def g():\n"
              "        import json\n    return y\n"
              "def build_parser():\n    import argparse\n")
    assert imports_in_functions(source, "m") == [
        "m.f: y (line 3)", "m.f: json (line 5)", "m.g: json (line 5)",
        "m.build_parser: argparse (line 8)"]
    assert imports_in_functions(source, "cli") == [
        "cli.f: y (line 3)", "cli.f: json (line 5)", "cli.g: json (line 5)"]


def test_no_import_inside_a_function():
    # An import inside a function is kept only where it must be lazy; none
    # breaks an import cycle, since numeric internals live in `linalg`.
    package = Path(ybekit.__file__).parent
    assert [f for p in sorted(package.glob("*.py"))
            for f in imports_in_functions(p.read_text(encoding="utf-8"), p.stem)] == []


def float_uses(source: str) -> list[str]:
    """Float constants and float(...) calls, the ways a float gets in."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, f"{node.value!r} (line {node.lineno})"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append((node.lineno, f"float() (line {node.lineno})"))
    return [text for _, text in sorted(found)]


def test_float_scan_sees_constants_and_calls():
    source = ('"""1.5 in a docstring is text."""\nx = 2 * 0.5\ny = float("3")\n'
              "z = 1e3\nw = 2j\nok = 7 // 2\n")
    assert float_uses(source) == ["0.5 (line 2)", "float() (line 3)",
                                  "1000.0 (line 4)", "2j (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_in_package(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


CODE_GENERATING = ("dataclasses", "inspect", "typing")


def import_time_costs(source: str) -> list[str]:
    """Imports of dataclasses, inspect or typing, and calls of exec or eval:
    code generated and compiled at run time, or large modules loaded, on the
    import path of every command."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("exec", "eval"):
            found.append((node.lineno, f"{node.func.id}() (line {node.lineno})"))
            continue
        else:
            continue
        found += [(node.lineno, f"{m} (line {node.lineno})") for m in modules
                  if m.split(".")[0] in CODE_GENERATING]
    return [text for _, text in sorted(found)]


def test_import_time_scan_sees_imports_and_calls():
    source = ("import os, typing\nfrom dataclasses import dataclass\n"
              "import inspect as ins\nfrom . import typing as local\n"
              "from .inspect import x\nexec('y = 1')\nz = eval('2')\n"
              "obj.exec('q')\nfrom typing.io import IO\n")
    assert import_time_costs(source) == [
        "typing (line 1)", "dataclasses (line 2)", "inspect (line 3)",
        "exec() (line 6)", "eval() (line 7)", "typing.io (line 9)"]


@pytest.mark.parametrize("path", sorted(Path(ybekit.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_code_generation_at_import(path):
    assert import_time_costs(path.read_text(encoding="utf-8")) == []


def unread_names(sources: dict[str, str]) -> list[str]:
    """Top-level names of the modules in sources, {file name: source}, that
    no line of any of them reads: never loaded, imported, re-exported by
    `__init__.py` or read as an attribute.  A decorated definition counts as
    read, since the decorator takes it."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for name, tree in sorted(trees.items()):
        if name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.decorator_list:
                    continue
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{name}: {d} (line {node.lineno})" for d in defined if d not in read]
    return found


def test_unread_name_scan_sees_definitions_reads_and_exports():
    sources = {
        "__init__.py": "from .m import exported\n",
        "m.py": ("HALF = 1\nUSED = 2\n"
                 "def exported(): return USED\ndef unused(): return other.attr\n"
                 "def attr(): pass\n@register('x')\ndef handler(): pass\n"
                 "class Dead:\n    x = 1\n"),
        "other.py": "from .m import helper\nimport m\nm.attr\n",
    }
    assert unread_names(sources) == ["m.py: HALF (line 1)", "m.py: unused (line 4)",
                                     "m.py: Dead (line 8)"]


def test_every_top_level_name_is_read():
    package = Path(ybekit.__file__).parent
    assert unread_names({p.name: p.read_text(encoding="utf-8")
                         for p in package.glob("*.py")}) == []


def test_every_test_helper_is_read():
    # The same scan over the test modules: each name `helpers.py` defines is
    # read by a test module or by another helper.  The unread names of the
    # test modules themselves are the tests, which pytest collects.
    tests = Path(__file__).parent
    found = unread_names({p.name: p.read_text(encoding="utf-8") for p in tests.glob("*.py")})
    assert [f for f in found if f.startswith("helpers.py: ")] == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def ybekit_reads(source: str) -> set[str]:
    """The names a module reads as attributes of `ybekit`: ybekit.<name>."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "ybekit"}


def test_ybekit_read_scan_sees_attributes():
    source = "import ybekit\nx = ybekit.embed(ybekit.Tensor2)\ny = other.ybekit.z\n"
    assert ybekit_reads(source) == {"embed", "Tensor2"}


def test_every_name_the_benchmark_reads_exists():
    # The enumerate oracle of the benchmark and its tests recompute residuals
    # with `ybekit.embed` and `ybekit.triple_mul`, which no library code
    # reads: a name deleted here makes the benchmark count correct output
    # as incorrect.  The benchmark files are only read.
    reads = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        reads |= ybekit_reads(path.read_text(encoding="utf-8"))
    assert {"embed", "triple_mul", "make_algebra", "Tensor2"} <= reads
    assert sorted(name for name in reads if not hasattr(ybekit, name)) == []
