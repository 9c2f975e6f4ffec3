"""Every exported name is used, and the README library sketch runs as written.

A name in a module's `__all__` must be referenced somewhere in `src/` outside
its own definition (the package `__init__` re-exports do not count), or be
imported by the README library sketch, or be an entry point the benchmark
tracer wraps.  The tracer's table is read from `bench/tracer.py`; nothing is
installed.
"""

import ast
import contextlib
import importlib.util
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fibreqm"


def _library_sketch_blocks():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def _readme_imports():
    names = set()
    for block in _library_sketch_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("fibreqm"):
                names.update(alias.name for alias in node.names)
    return names


def _tracer_entry_points():
    spec = importlib.util.spec_from_file_location("tracer_table", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(f"{name}.py", path.split(".")[0]) for name, path, *_ in module.ENTRY_POINTS}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {element.value for element in node.value.elts}
    return set()


def _definition_lines(tree, names):
    """Line span of each top-level definition of a name in `names`."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, ast.Assign):
            defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in defined:
            if name in names:
                spans[name] = range(node.lineno, node.end_lineno + 1)
    return spans


def test_every_exported_name_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")
             if path.name != "__init__.py"}
    references = []  # (file, name, line)
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((fname, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((fname, node.attr, node.lineno))

    readme, wrapped = _readme_imports(), _tracer_entry_points()
    unused = []
    for fname, tree in sorted(trees.items()):
        exported = _exported(tree)
        spans = _definition_lines(tree, exported)
        for name in sorted(exported):
            own = spans.get(name, range(0))
            used = any(n == name and not (f == fname and line in own)
                       for f, n, line in references)
            if not (used or name in readme or (fname, name) in wrapped):
                unused.append(f"{fname[:-3]}.{name}")
    assert not unused, f"exported but unused: {unused}"


def test_library_sketch_runs_and_prints_small_residuals():
    blocks = _library_sketch_blocks()
    assert blocks, "README has no library sketch"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})
    printed = [float(x) for x in out.getvalue().split()]
    assert printed, "the library sketch prints no residual"
    assert all(x < 1e-6 for x in printed), printed
