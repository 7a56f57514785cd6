"""The experiment scripts still run against the package's public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("renewal_divergence.py", ["--no-cache"]),
        ("oracle_sweep.py", ["--count", "50"]),
        ("renewal_divergence.py", []),  # the default, cached path
    ],
)
def test_script_exits_cleanly(script, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
