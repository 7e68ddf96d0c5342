"""The public surface: each module's `__all__` names what it exports."""

import importlib
import inspect
import pkgutil
import re
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
# the callers a public function must have: a test, a demo or a CLI command
CALLERS = "\n".join(path.read_text(encoding="utf-8") for path in
                    [*sorted((ROOT / "tests").glob("*.py")),
                     *sorted((ROOT / "demos").glob("*.py")),
                     ROOT / "src" / "iet3" / "cli.py"])


@pytest.mark.parametrize("mod", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_public_function_has_a_caller(mod):
    unused = [name for name in mod.__all__
              if inspect.isfunction(getattr(mod, name))
              and not re.search(rf"\b{name}\b", CALLERS)]
    assert not unused, f"{mod.__name__} exports {unused}, which no test, demo or CLI command names"
