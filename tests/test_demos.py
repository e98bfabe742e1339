"""Smoke test: each demo script runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# 05_overfit_training.py is left out: it trains both stages for about 50 s,
# and the acceptance trainings already run that path.
DEMOS = ["01_skeleton_adjacency.py", "02_dct_trajectory.py", "03_synthetic_motion.py",
         "04_model_and_gradients.py", "06_evaluation_protocols.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
