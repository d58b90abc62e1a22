import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "brightlink"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_private_name_from_a_sibling(path):
    # A module's underscored names are its own: one that another module needs
    # belongs in its public API.
    private = [f"line {node.lineno}: from {'.' * node.level}{node.module or ''} "
               f"import {alias.name}"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{path.name} imports private names: {private}"


def test_a_sweep_and_a_monte_carlo_run_load_no_scipy_special():
    # scipy.special costs each process about 5 MB and 50-100 ms to import;
    # Q(x) comes from math.erfc, and the sparse warp is scipy's one use.
    script = """
import sys
import brightlink, brightlink.cli
from brightlink import (BerModel, ChannelParams, ModulationParams, distance_sweep,
                        frames_needed, make_carrier, monte_carlo_ber)
params = ModulationParams(m=2, symbol_duration_frames=2)
carrier = make_carrier("gradient", 16, 12, frames_needed(16, params))
sweep = distance_sweep([1, 2, 3], "1010101010101010", carrier, params,
                       ChannelParams(noise_sigma=0.01))
assert len(sweep.rows) == 3, sweep
monte_carlo_ber(BerModel(mu0=0.0, mu1=1.0, sigma=0.5), 10_000)
print(sorted(name for name in sys.modules if name.startswith("scipy.special")))
"""
    # pytest's pythonpath setting does not reach a child process.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
