"""Smoke run of every demo script, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_exits_cleanly():
    demos = sorted((ROOT / "demos").glob("0*.py"))
    assert len(demos) == 6
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for demo in demos:
        done = subprocess.run(
            [sys.executable, str(demo)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, f"{demo.name}: {done.stderr[-2000:]}"
