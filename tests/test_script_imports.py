"""The demos, scripts and benchmark import only names that rlab defines,
and call rlab callables only with arguments that bind to their signatures.

They are parsed; of them only the demos are run, each in a process of its
own: ``scripts/calibrate_manifest.py`` rewrites ``tests/manifest.json`` when
it runs.  The benchmark's tracer also names private rlab functions, which
must exist for its counters to read them.
"""

import ast
import functools
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [p for d in ("demos", "scripts", "perfbench")
           for p in sorted((ROOT / d).glob("*.py"))]


def rlab_imports(path):
    """(module, name or None) for every rlab import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and (node.module == "rlab" or node.module.startswith("rlab.")):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "rlab" or alias.name.startswith("rlab."):
                    yield alias.name, None


def test_sources_found():
    assert {p.parent.name for p in SOURCES} == {"demos", "scripts", "perfbench"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.parent.name == "demos"],
                         ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    # in a scratch directory, where a demo writes its CSV files, with rlab
    # from this checkout and no bytecode written
    r = subprocess.run([sys.executable, str(path)], cwd=tmp_path, capture_output=True,
                       text=True, env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC,
                                       "PYTHONDONTWRITEBYTECODE": "1"})
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_rlab_names_imported_exist(path):
    imports = list(rlab_imports(path))
    missing = []
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    if path.parent.name != "perfbench":    # run.py and workloads.py import no rlab
        assert imports, "no rlab import found"
    assert not missing, missing


def rlab_bindings(tree):
    """{name: rlab module or object} for the names a file binds by importing
    from rlab, or by assigning an attribute of such a name to a plain name."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and (node.module == "rlab" or node.module.startswith("rlab.")):
            mod = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(mod, alias.name, None)
                if obj is None:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = obj
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "rlab" or alias.name.startswith("rlab."):
                    importlib.import_module(alias.name)
                    bound = alias.name if alias.asname else "rlab"
                    names[alias.asname or bound] = importlib.import_module(bound)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            obj = resolve(node.value, names)
            if obj is not None:
                names[node.targets[0].id] = obj
    return names


def resolve(expr, names):
    """The rlab object that a name or a dotted attribute chain refers to."""
    if isinstance(expr, ast.Name):
        return names.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = resolve(expr.value, names)
        return None if base is None else getattr(base, expr.attr, None)
    return None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_rlab_keywords_are_parameters(path):
    # every call of an rlab callable binds to its signature: no unknown
    # keyword, no missing argument, no positional argument too many
    tree = ast.parse(path.read_text(), filename=str(path))
    names = rlab_bindings(tree)
    unbound = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = resolve(node.func, names)
        if fn is None or not callable(fn):
            continue
        try:
            sig = inspect.signature(fn)
        except ValueError:          # a builtin without a signature
            continue
        args = [a for a in node.args if not isinstance(a, ast.Starred)]
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg is not None}
        unpacked = len(args) < len(node.args) or len(kwargs) < len(node.keywords)
        try:
            if unpacked:            # *args or **kwargs: check the named keywords
                sig.bind_partial(**kwargs)
            else:
                sig.bind(*args, **kwargs)
        except TypeError as e:
            unbound.append(f"line {node.lineno}: {ast.unparse(node)}: {e}")
    assert not unbound, unbound


def test_tracer_private_names_are_rlab_functions():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    private = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["PRIVATE"])
    assert private
    for name in private:
        layer, attr = name.split(".")
        fn = getattr(importlib.import_module(f"rlab.{layer}"), attr, None)
        assert inspect.isfunction(fn), name


def test_package_exports_resolve_and_name_one_geometry():
    # every exported name resolves, and of rlab.tensor the package exports
    # the one geometry class of a pair (g, u) and its u = 0 constructor,
    # nothing besides
    import rlab
    assert all(hasattr(rlab, name) for name in rlab.__all__)
    tensor = {name for name in rlab.__all__
              if getattr(getattr(rlab, name), "__module__", None) == "rlab.tensor"}
    assert tensor == {"Geometry", "curvature"}


# public rlab names that no stage, demo, script or benchmark reaches, each
# kept for a reason; every other public name needs a reference in code
ONLY_TESTS_REACH = {
    "wy_hat_margin_identity": "a Killing-field margin the paper bounds; no output holds it yet",
    "mu_lower_bound": "the lower bound of mu; wiring it in would change entropy.csv",
    "rm_lp_series": "the L^p curvature norms, to stand against lp_curvature_bound",
    "lp_curvature_bound": "the paper's L^p curvature bound; no output holds it yet",
    "lambda_bounds": "the paper's two-sided Lambda bounds; no output holds them yet",
    "example512": "the closed form that the weighted-curvature tests check against",
    "mu_upper_bound": "the oracle that the entropy tests hold mu_minimize against",
    "euclidean_chart": "a chart instance that the curvature tests use as an oracle",
    "radial_potential": "the radial potential of the closed-form chart tests",
    "stereographic_sphere_chart": "the round-sphere chart of the constant-curvature tests",
    "interior": "drops a chart's boundary collar, where the chart tests' oracles do not hold",
}


def _defined(stmt):
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _referenced(stmt):
    """The names a statement reads, as a name, an attribute or an import."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rpartition(".")[2] for alias in node.names)


def test_every_public_rlab_name_is_reached_outside_the_tests():
    # a name counts as reached when a top-level statement other than its own
    # definition reads it in src/rlab (not the package's re-exports), demos/,
    # scripts/ or perfbench/; docstrings and tests do not count
    modules = sorted(p for p in (ROOT / "src" / "rlab").glob("*.py")
                     if p.name != "__init__.py")
    public, reached = {}, set()
    for path in modules + SOURCES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = _defined(stmt)
            if path in modules:
                public.update((name, path.stem) for name in names
                              if not name.startswith("_"))
            reached |= set(_referenced(stmt)) - names
    assert set(ONLY_TESTS_REACH) <= set(public)
    assert set(ONLY_TESTS_REACH).isdisjoint(reached), "reached now: drop it from the list"
    unreached = sorted(f"{public[name]}.{name}" for name in public
                       if name not in reached and name not in ONLY_TESTS_REACH)
    assert not unreached, unreached


# cached fields of tensor.Geometry that no stage, demo, script or benchmark
# reads, each kept for a reason; every other field needs a read in code
ONLY_TESTS_READ = {
    "weyl": "the n = 4 conformal-flatness oracle of tests/test_acceptance.py",
}


def test_every_geometry_field_is_read_outside_the_tests():
    # a cached field counts as read when src/rlab, demos/, scripts/ or
    # perfbench/ loads it as an attribute or names it by a string key, as
    # uniqueness.DiffBundle.DIFFS and identities.QUANTITIES do
    from rlab.tensor import Geometry
    fields = {name for name, v in vars(Geometry).items()
              if isinstance(v, functools.cached_property)}
    read = set()
    for path in sorted((ROOT / "src" / "rlab").glob("*.py")) + SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert set(ONLY_TESTS_READ) <= fields
    assert set(ONLY_TESTS_READ).isdisjoint(read), "read now: drop it from the list"
    unread = sorted(fields - read - set(ONLY_TESTS_READ))
    assert not unread, unread


def test_geometry_parameters_have_no_default():
    # a function that reads a Geometry takes it in one form, required: a
    # default would bring back a branch that rebuilds the geometry when the
    # caller leaves it out
    found, optional = [], []
    for path in sorted((ROOT / "src" / "rlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
            pairs = (*zip(positional, defaults), *zip(a.kwonlyargs, a.kw_defaults))
            for arg, default in pairs:
                if arg.annotation is not None \
                        and re.search(r"\bGeometry\b", ast.unparse(arg.annotation)):
                    where = f"{path.name}:{node.name}({arg.arg})"
                    found.append(where)
                    if default is not None:
                        optional.append(where)
    assert len(found) >= 5, found       # the guard has parameters to check
    assert not optional, optional


def test_no_np_roll_in_rlab():
    # periodic stencils write through mesh._stencil into one output;
    # np.roll copies the whole array once per shift, so no src/rlab module
    # calls it or imports it from numpy
    found = []
    for path in sorted((ROOT / "src" / "rlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "roll" \
                    or isinstance(node, ast.ImportFrom) and node.module == "numpy" \
                    and any(alias.name == "roll" for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
