"""The demos run end to end, from the repository root as documented."""

import os
import subprocess
import sys
from pathlib import Path

import pmdkit

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_every_demo_runs_cleanly():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04", "05"]
    # the children import the pmdkit this process imported, installed or not
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pmdkit.__file__))}
    # started together, so the five interpreter start-ups overlap
    procs = [
        subprocess.Popen([sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for demo in DEMOS
    ]
    errors = [proc.communicate()[1] for proc in procs]  # waits, and closes the pipes
    failures = [(demo.name, err[-500:]) for demo, proc, err in zip(DEMOS, procs, errors)
                if proc.returncode != 0]
    assert failures == []
