"""The public surface: each module's `__all__` names what it exports."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iet3
from iet3 import joinings
from iet3.arith import RotationCounter
from iet3.construction import non_simplicity_witness, verify_switch
from iet3.iet_core import apply_pow, apply_pow_many, orbit, transport
from iet3.joinings import (approx_by_powers, disintegrate, empirical_orbit_joining,
                           measure_histogram_csv, product_sample, sample_power_joining,
                           weak_closure_check)
from iet3.renorm import section_record_exact
from iet3.towers import build_tower

MODULES = [importlib.import_module(f"iet3.{info.name}")
           for info in pkgutil.iter_modules(iet3.__path__)]


_IMPORT_BOUNDARY = """
import sys
import numpy as np
import iet3.cli, iet3.construction, iet3.joinings, iet3.towers
assert "scipy.optimize" not in sys.modules, "scipy.optimize loaded on import"
from iet3.joinings import DiscreteMeasure2D, kr_distance_detailed
rng = np.random.default_rng(5)
mu, nu = (DiscreteMeasure2D.equal_weight(rng.random(7), rng.random(7)) for _ in "ab")
print(*(kr_distance_detailed(mu, nu, method=m)["value"] for m in ("lp", "assignment")))
"""


def test_scipy_optimize_is_loaded_at_the_first_exact_solve():
    # the library and its command line import no SciPy solver; the first
    # exact KR solve loads SciPy's compiled solver modules, and both solver
    # routes still solve.  A fresh interpreter with PYTHONPATH set (pytest
    # has loaded SciPy in this one)
    path = [str(Path(iet3.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BOUNDARY], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert proc.returncode == 0, proc.stderr
    lp, assignment = map(float, proc.stdout.split())
    assert lp > 0 and lp == pytest.approx(assignment, abs=1e-12)


_SOLVER_MODULES = """
import sys
import numpy as np
from iet3 import joinings
from iet3.joinings import DiscreteMeasure2D, kr_distance_detailed
names = ("_lsap", "_highspy._core")
scipy_first = sys.argv[1] == "scipy-first"
if scipy_first:
    import scipy.optimize
    theirs = [sys.modules["scipy.optimize." + n] for n in names]
rng = np.random.default_rng(5)
mu, nu = (DiscreteMeasure2D.equal_weight(rng.random(7), rng.random(7)) for _ in "ab")
value = {m: kr_distance_detailed(mu, nu, method=m, grid=8)
         for m in ("lp", "assignment", "grid")}
lp, assignment, grid = (value[m]["value"] for m in ("lp", "assignment", "grid"))
assert abs(grid - lp) <= value["grid"]["bound"] + 1e-12
ours = [joinings._scipy_solver(n) for n in names]
assert all(sys.modules["scipy.optimize." + n] is m for n, m in zip(names, ours))
if scipy_first:
    assert ours == theirs, "the library loaded its own copies"
else:
    assert "scipy.optimize" not in sys.modules, "the solves imported scipy.optimize"
    import scipy.optimize
    assert [sys.modules["scipy.optimize." + n] for n in names] == ours
assert scipy.optimize.linear_sum_assignment is ours[0].linear_sum_assignment
n = len(mu)
D = (np.abs(mu.xs[:, None] - nu.xs[None, :]) + np.abs(mu.ys[:, None] - nu.ys[None, :]))
A = np.vstack([np.kron(np.eye(n), np.ones(n)), np.kron(np.ones(n), np.eye(n))])
res = scipy.optimize.linprog(D.ravel(), A_eq=A, b_eq=np.concatenate([mu.ws, nu.ws]),
                             method="highs")
print(lp, assignment, res.fun)
"""


@pytest.mark.parametrize("order", ["library-first", "scipy-first"])
def test_exact_solves_load_only_the_compiled_solver_modules(order):
    # `lp`, `assignment` and `grid` solves load `scipy.optimize._lsap` and
    # `scipy.optimize._highspy._core` and never the `scipy.optimize` package;
    # imported later, the package reuses those modules, and imported first,
    # its modules are the ones the library solves with
    path = [str(Path(iet3.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    proc = subprocess.run([sys.executable, "-c", _SOLVER_MODULES, order], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert proc.returncode == 0, proc.stderr
    lp, assignment, oracle = map(float, proc.stdout.split())
    assert lp > 0 and lp == pytest.approx(oracle, abs=1e-12)
    assert assignment == pytest.approx(lp, abs=1e-12)


def test_a_missing_solver_module_is_named():
    with pytest.raises(ImportError, match=r"scipy\.optimize\._absent"):
        joinings._scipy_solver("_absent")


def test_only_the_command_line_front_end_has_no_all():
    assert [m.__name__ for m in MODULES if not hasattr(m, "__all__")] == ["iet3.cli"]


@pytest.mark.parametrize("mod", [iet3] + [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_matches_public_definitions(mod):
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ names undefined {missing}"
    unlisted = [name for name, obj in vars(mod).items()
                if not name.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == mod.__name__ and name not in mod.__all__]
    assert not unlisted, f"{mod.__name__} defines public {unlisted} outside __all__"


ROOT = Path(__file__).resolve().parent.parent


def _reads(node) -> set:
    """The identifiers `node` reads as code: names and attributes (a mention
    in a docstring or an `__all__` entry is a string, and an import alone is
    no use)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


# outside the library, a public name is used by a demo, the benchmark or the
# paper's acceptance criteria; the unit tests do not count as callers
OUTSIDE = set().union(*(_reads(ast.parse(path.read_text(encoding="utf-8"))) for path in
                        [*sorted((ROOT / "demos").glob("*.py")),
                         *sorted((ROOT / "perfbench").glob("*.py")),
                         ROOT / "tests" / "test_acceptance.py"]))


# per library module but `__init__.py`, each top-level statement's defined
# name (None if it defines none) and the identifiers it reads
LIBRARY = {path.stem: [(getattr(stmt, "name", None), _reads(stmt))
                       for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
           for path in sorted((ROOT / "src" / "iet3").glob("*.py"))
           if path.name != "__init__.py"}


def _library_reads(module: str, name: str) -> bool:
    """Whether the library reads `name` outside its definition in `module`."""
    return any(name in reads for mod, stmts in LIBRARY.items()
               for defined, reads in stmts if (mod, defined) != (module, name))


@pytest.mark.parametrize("mod", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_public_function_has_a_caller(mod):
    unused = [name for name in mod.__all__
              if (inspect.isfunction(getattr(mod, name)) or inspect.isclass(getattr(mod, name)))
              and not _library_reads(mod.__name__.rpartition(".")[2], name)
              and name not in OUTSIDE]
    assert not unused, (f"{mod.__name__} exports {unused}, which neither the library "
                        "nor a demo, the benchmark or the acceptance suite uses")


# -- defaults ------------------------------------------------------------------

def _settables(tree: ast.Module) -> list:
    """Per public function, method and dataclass of a module: (label, the
    name its calls give it, its definition, its positional parameters, its
    defaulted ones).  A method's first parameter is its self or cls, and
    `__init__` is called by its class's name."""
    def public(name):
        return not name.startswith("_") or name == "__init__"

    def function(label, call, fn, skip=0):
        a = fn.args
        pos = [p.arg for p in [*a.posonlyargs, *a.args]][skip:]
        return (label, call, fn, pos, pos[len(pos) - len(a.defaults):]
                + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])

    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and public(stmt.name):
            found.append(function(stmt.name, stmt.name, stmt))
        if not (isinstance(stmt, ast.ClassDef) and public(stmt.name)):
            continue
        if any("dataclass" in _reads(d) for d in stmt.decorator_list):
            # the init fields: a `field(init=False)` is the class's to set
            fields = [f for f in stmt.body if isinstance(f, ast.AnnAssign)
                      and not any(k.arg == "init" for k in getattr(f.value, "keywords", []))]
            found.append((stmt.name, stmt.name, stmt, [f.target.id for f in fields],
                          [f.target.id for f in fields if f.value is not None]))
        found += [function(f"{stmt.name}.{f.name}",
                           stmt.name if f.name == "__init__" else f.name, f, skip=1)
                  for f in stmt.body if isinstance(f, ast.FunctionDef) and public(f.name)]
    return found


def test_every_default_has_a_setter():
    # a default is a settable value: some call outside its definition, in
    # the library, a demo, the benchmark or the acceptance suite, passes it
    # by keyword, by position or through `dataclasses.replace`
    library = sorted((ROOT / "src" / "iet3").glob("*.py"))
    paths = [*library, *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    calls = [(path, c) for path, tree in trees.items() for c in ast.walk(tree)
             if isinstance(c, ast.Call)]

    def passed(path, call, node, pos, name):
        for where, c in calls:
            if where == path and node.lineno <= c.lineno <= node.end_lineno:
                continue
            called = getattr(c.func, "id", None) or getattr(c.func, "attr", None)
            keywords = {k.arg for k in c.keywords}
            given = next((i for i, a in enumerate(c.args) if isinstance(a, ast.Starred)),
                         len(c.args))
            if (called == "replace" and name in keywords
                    or called == call and (name in keywords or name in pos[:given])):
                return True
        return False

    unset = [f"{label}({name})" for path in library
             for label, call, node, pos, defaulted in _settables(trees[path])
             for name in defaulted if not passed(path, call, node, pos, name)]
    assert not unset, f"defaults that no caller sets: {unset}"


# -- integer arguments ---------------------------------------------------------

def _int_reads(tree: ast.Module) -> list:
    """`int()` applied to a parameter of a public function or method (a
    dunder counts as public), as "function(parameter)"."""
    def public(name):
        return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))

    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            defs = [(stmt.name, stmt)]
        elif isinstance(stmt, ast.ClassDef) and public(stmt.name):
            defs = [(f"{stmt.name}.{f.name}", f) for f in stmt.body
                    if isinstance(f, ast.FunctionDef)]
        else:
            continue
        for qualname, fn in defs:
            a = fn.args
            params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      *filter(None, [a.vararg, a.kwarg])]}
            found += [f"{qualname}({call.args[0].id})" for call in ast.walk(fn)
                      if public(fn.name) and isinstance(call, ast.Call)
                      and isinstance(call.func, ast.Name) and call.func.id == "int"
                      and len(call.args) == 1 and isinstance(call.args[0], ast.Name)
                      and call.args[0].id in params]
    return found


def test_no_public_function_truncates_an_integer_argument():
    # int(2.5) is 2: an argument is read by `arith._index` or checked by
    # `arith._check_count`, never truncated
    found = {path.name: _int_reads(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted((ROOT / "src" / "iet3").glob("*.py"))}
    assert not {k: v for k, v in found.items() if v}


def _rc(P=3, Q=10, C=3):
    return RotationCounter(P, Q, C)


_MEASURE = product_sample(200, seed=1)

# (argument, the call with the argument v, a valid value, the count's least
# value or None for an exponent, a start or a circle integer, and then a
# value below its bound, if it has one)
_INTEGER_ARGUMENTS = [
    ("sample_power_joining N", lambda fx, v: sample_power_joining(fx("golden"), 1, v), 5, 1),
    ("disintegrate bins", lambda fx, v: disintegrate(_MEASURE, v), 4, 1),
    ("measure_histogram_csv grid", lambda fx, v: measure_histogram_csv(_MEASURE, v), 4, 1),
    ("approx_by_powers bins", lambda fx, v: approx_by_powers(
        fx("tower_iet"), product_sample(20000, seed=1),
        build_tower(fx("tower_iet"), *fx("doc_towers")[-1]), bins=v), 32, 2),
    ("weak_closure_check horizon",
     lambda fx, v: weak_closure_check(fx("golden"), 1, v, 50), 2, 1),
    ("weak_closure_check N", lambda fx, v: weak_closure_check(fx("golden"), 1, 2, v), 50, 1),
    ("iet_core.orbit L", lambda fx, v: orbit(fx("golden"), 0.1, v), 5, 1),
    ("first_hit horizon", lambda fx, v: _rc().first_hit([1, 4], v), 4, 0),
    ("build_tower n", lambda fx, v: build_tower(fx("tower_iet"), fx("doc_towers")[0][0], v),
     2, 1),
    ("transport steps", lambda fx, v: transport(fx("golden"), [(0.1, 0.2)], v), 3, 0),
    ("section_record_exact N", lambda fx, v: section_record_exact(55, 144, 89, v), 13, 1),
    ("verify_switch samples", lambda fx, v: verify_switch(fx("doc_switch"), v), 8, 1),
    ("non_simplicity_witness K_levels",
     lambda fx, v: non_simplicity_witness(fx("golden"), K_levels=v, N=200), 2, 2),
    ("apply_pow n", lambda fx, v: apply_pow(fx("golden"), v, np.array([0.1, 0.7])), 3, None),
    ("apply_pow_many n", lambda fx, v: apply_pow_many(
        fx("golden"), v, np.array([0.1, 0.7]), step_limit=0), 5000, None),
    ("weak_closure_check k", lambda fx, v: weak_closure_check(fx("golden"), v, 2, 50), 1, None),
    ("sample_power_joining a",
     lambda fx, v: sample_power_joining(fx("golden"), v, 20), 10 ** 6, None),
    ("empirical_orbit_joining n",
     lambda fx, v: empirical_orbit_joining(fx("golden"), 0.3, v, 20), 7, None),
    ("RotationCounter P", lambda fx, v: _rc(P=v).orbit(1, 0, np.arange(5)), 3, None, 0),
    ("RotationCounter Q", lambda fx, v: _rc(Q=v).orbit(1, 0, np.arange(5)), 10, None, 3),
    ("RotationCounter C", lambda fx, v: _rc(C=v).orbit(1, 0, np.arange(5)), 3, None, 0),
    ("signed_residue n", lambda fx, v: _rc().signed_residue(v), 7, None),
    ("orbit u0", lambda fx, v: _rc().orbit(v, 2, np.arange(4)), 1, None),
    ("orbit start", lambda fx, v: _rc().orbit(1, v, np.arange(4)), 2, None),
    ("orbit idx", lambda fx, v: _rc().orbit(1, 0, np.array([False, v])), 2, None),
    ("visits n", lambda fx, v: _rc().visits([1, 4], v), 3, None),
    ("visit_time n", lambda fx, v: _rc().visit_time([1, 4], v), 2, None, -1),
    ("power n", lambda fx, v: _rc().power(np.array([1], dtype=object), v), 2, None),
    # an element of an object array is read by the same rule
    ("visits n element",
     lambda fx, v: _rc().visits([1, 4], np.array([v, 2], dtype=object)), 3, None),
    ("visits u element", lambda fx, v: _rc().visits(np.array([v, 4], dtype=object), 2), 1, None),
    ("power n element", lambda fx, v: _rc().power(np.array([1, 2], dtype=object),
                                                  np.array([v, 1], dtype=object)), 2, None),
]


def _bits(v):
    """v as plain Python data, floats by their bits and NumPy integers as
    ints, so that two results compare bit for bit."""
    if isinstance(v, np.ndarray):
        return _bits(v.tolist()) if v.dtype == object else (v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, dict):
        return {k: _bits(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_bits(x) for x in v]
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if hasattr(v, "__dict__"):
        return type(v).__name__, _bits(vars(v))
    return v


@pytest.mark.parametrize("case", _INTEGER_ARGUMENTS, ids=lambda case: case[0])
def test_integer_arguments_are_read_by_one_rule(request, case):
    (label, call, valid, low, *below), fx = case, request.getfixturevalue
    if low is not None:
        below = [low - 1]
    name = label.split()[-1]
    for bad in (2.5, True, *below):
        if low is None:
            with pytest.raises((TypeError, ValueError)):
                call(fx, bad)
        else:
            with pytest.raises(ValueError, match=f"{name} must be an integer >= {low}"):
                call(fx, bad)
    assert _bits(call(fx, np.int64(valid))) == _bits(call(fx, valid))


# -- the benchmark's reads -----------------------------------------------------

def _perfbench(name: str):
    """A module of the benchmark harness, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_the_three_level_witness_is_pinned(doc_witness):
    # the sha256 pin of the documented witness report (seed 7, 1e5 atoms): a
    # change that moves it updates the pin and lists the values that moved
    rep = {k: v for k, v in doc_witness.items() if k != "_runtime"}
    assert (_perfbench("workloads").witness_digest(rep)
            == "a597c60f5d7ab9b907f6cf9845614244368c5d3e8fdd8b05b40797dde5de26ad")


def test_the_benchmark_reads_the_library(doc_witness):
    # the witness digest reads each level's k, n_steps, m and exponents, and
    # the tracer needs one span name per public function and method
    assert len(_perfbench("workloads").witness_digest(doc_witness)) == 64
    assert _perfbench("tracer")._targets()
