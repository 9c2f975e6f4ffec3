"""Every exported name is used, every optional parameter is set by some caller,
every parameter of a module-level function is read, and the README library
sketch runs as written.

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


def _optional_parameters(tree):
    """(qualified name, call name, position, parameter) of each optional parameter.

    Covers the public top-level functions and the public methods (and
    `__init__`) of public classes.  The position counts the arguments a call
    passes, so `self`/`cls` are skipped; keyword-only parameters have none.
    A constructor is called by its class name.
    """
    def optional(fn, skip):
        args = fn.args.posonlyargs + fn.args.args
        positional = list(enumerate(a.arg for a in args))[len(args) - len(fn.args.defaults):]
        keyword = [(None, a.arg) for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                   if default is not None]
        return [(None if i is None else i - skip, name) for i, name in positional + keyword]

    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found += [(node.name, node.name, i, p) for i, p in optional(node, 0)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name.startswith("_") and fn.name != "__init__"):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                called_as = node.name if fn.name == "__init__" else fn.name
                found += [(f"{node.name}.{fn.name}", called_as, i, p)
                          for i, p in optional(fn, 0 if static else 1)]
    return found


def _shape_prefix(starred):
    """k for a starred `*x.shape[:k]`, which passes k positional arguments; None for
    any other starred argument, whose length the call does not show."""
    value = starred.value
    if (isinstance(value, ast.Subscript) and isinstance(value.value, ast.Attribute)
            and value.value.attr == "shape" and isinstance(value.slice, ast.Slice)
            and value.slice.lower is None and value.slice.step is None
            and isinstance(value.slice.upper, ast.Constant)):
        return value.slice.upper.value
    return None


def _calls(tree):
    """(called name, positional count, has */** unpacking of unknown length, keyword
    names) of each call.

    `import ... as` aliases are resolved, and `cls(...)` inside a class body
    counts as a call of that class.  A starred `*x.shape[:k]` counts as k
    positional arguments (`_shape_prefix`).
    """
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names if alias.asname}
    found = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            name = cls if name == "cls" else aliases.get(name, name)
            counts = [_shape_prefix(a) if isinstance(a, ast.Starred) else 1 for a in node.args]
            unpacked = None in counts or any(k.arg is None for k in node.keywords)
            found.append((name, sum(filter(None, counts)), unpacked,
                          {k.arg for k in node.keywords}))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return found


def test_every_optional_parameter_is_set_by_a_caller():
    """An optional parameter that no call in src/, tests/ or the README sketch passes
    should be a constant of its function."""
    sources = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    trees = list(sources.values())
    trees += [ast.parse(path.read_text()) for path in sorted((ROOT / "tests").glob("*.py"))]
    trees += [ast.parse(block) for block in _library_sketch_blocks()]
    calls = [call for tree in trees for call in _calls(tree)]
    never_set = [
        f"{path.stem}.{qualified}({parameter})"
        for path, tree in sources.items()
        for qualified, called_as, position, parameter in _optional_parameters(tree)
        if not any(name == called_as and (unpacked or parameter in keywords
                                          or (position is not None and position < count))
                   for name, count, unpacked, keywords in calls)
    ]
    assert not never_set, f"optional parameters no caller sets: {never_set}"


def test_every_parameter_of_a_module_function_is_read():
    """A parameter its function never reads should not be a parameter.

    This holds for the checks and nodes too: each `_check_*(tol, ...)` reads
    its tolerance and every node it names.
    Exempt are the argparse handlers `_cmd_*`, whose signatures their
    dispatchers fix, and the time block `part` that the sweep passes first to
    every pointwise check and block node in `checks`: a check whose reads are
    all block nodes, already cut to that block, needs nothing more of it.
    """
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_cmd_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            if path.stem == "checks" and positional and positional[0].arg == "part":
                positional = positional[1:]
            params = [a.arg for a in positional + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.stem}.{fn.name}({p})" for p in params if p not in read]
    assert not unread, f"parameters never read: {unread}"


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


def test_only_hilbert_reads_strides():
    """How a constant family's stack is stored, a 0-stride broadcast, is known to
    `hilbert` alone: every other module asks its `is_broadcast` or
    `distinct_matrices`."""
    readers = {path.name for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "strides"}
    assert readers == {"hilbert.py"}


def test_only_the_grid_check_asks_whether_a_stack_is_a_broadcast():
    """Outside `hilbert`, only `TrivializationFamily.validate_on_grid` calls
    `is_broadcast`, to keep a broadcast's grid values: a sampled batch is taken in
    one call, and no proof is kept between batches."""
    callers = {(path.name, scope) for path in sorted(PACKAGE.glob("*.py"))
               for scope, node in _scoped_nodes(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("is_broadcast")
               and path.name != "hilbert.py"}
    assert callers == {("bundle.py", "TrivializationFamily.validate_on_grid")}


def test_only_the_pool_helper_imports_threads():
    """The pool helper in `hilbert`, which runs the time blocks of setup and of the
    checks' sweep, is the one place that runs threads, so it alone may import
    `threading` or `concurrent.futures`."""
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [f"{node.module}.{alias.name}"
                                                 for alias in node.names]
            else:
                continue
            if any(module.split(".")[0] == "threading" or module.startswith("concurrent.futures")
                   for module in modules):
                importers.add(path.name)
    assert importers == {"hilbert.py"}


def _scoped_nodes(tree):
    """(scope, node) of every node of a module, the scope its enclosing function or
    class names, dotted ("" at the top level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            found.append((scope, child))
            visit(child, inner)

    visit(tree, "")
    return found


def test_only_bundle_samples_the_frames_and_no_module_forms_a_whole_frames_stack():
    """A trivialization family's samplers (`_sample`, `_values`, and its checked
    `_sampled`) are called in `bundle` alone, so every read of the frames goes
    through its checks and its `GridFrames`; outside it only the Hamiltonian and
    observable families call their own `_sample`.  And no module forms a whole stack
    of the grid frames or of their inverses: no `frames[:]` or `inverse_frames[:]`,
    and no `np.asarray`, `np.array` or `np.ascontiguousarray` of them."""
    calls, wholes = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("_sample", "_values", "_sampled")
                    and path.name != "bundle.py"):
                calls.add((path.name, scope, ast.unparse(node.func)))
            whole_slice = (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)
                           and node.slice.lower is node.slice.upper is node.slice.step is None)
            if whole_slice and ast.unparse(node.value).endswith("frames"):
                wholes.add((path.name, scope, ast.unparse(node)))
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) in ("np.asarray", "np.array", "np.ascontiguousarray")
                    and node.args and ast.unparse(node.args[0]).endswith("frames")):
                wholes.add((path.name, scope, ast.unparse(node)))
    assert calls == {("dynamics.py", "HamiltonianFamily.at_many", "self._sample"),
                     ("dynamics.py", "ObservableFamily.derivative_at_many", "self._sample")}
    assert not wholes, sorted(wholes)
