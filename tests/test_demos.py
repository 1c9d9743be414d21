"""Every narrative demo under demos/ runs to completion on this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_runs_cleanly(tmp_path):
    assert DEMOS
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in DEMOS:
        proc = subprocess.run(
            [sys.executable, str(demo)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr}"
        assert "Traceback" not in proc.stderr, demo.name
