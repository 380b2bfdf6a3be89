"""Every demo but the divergence tower (05, ~33 s) runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        "01_quadratic_splitting.py",
        "02_multiquadratic_fields.py",
        "03_splitting_series.py",
        "04_prescribed_splitting.py",
        "06_split_prime_tower.py",
        "07_northcott_window.py",
        "08_density_experiment.py",
    ],
)
def test_demo_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr
