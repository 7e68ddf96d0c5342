"""The public surface: each module's `__all__` names what it exports."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import iet3

MODULES = [importlib.import_module(f"iet3.{info.name}")
           for info in pkgutil.iter_modules(iet3.__path__)]


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
