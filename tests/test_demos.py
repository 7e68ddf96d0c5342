"""The demos run to completion against the library in this tree (the
witness in its two-level `--fast` form)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_exchange_basics", "02_renormalization_scan",
                                  "03_towers", "04_kr_distances", "05_switch",
                                  "06_witness --fast", "derive_parameters",
                                  "golden_limits"])
def test_demo_runs(demo):
    name, *argv = demo.split()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py"), *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
