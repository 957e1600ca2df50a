"""Smoke test: the fast demos run to completion.

Demo 04 runs in about a second.  Demo 03 takes about 5 s on a 2-core host
and is left to be run by hand.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_tape_and_model.py", "02_signature_method.py",
                                  "04_constrained_lasso.py", "05_simplex_duality.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
