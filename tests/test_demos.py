"""The demos run end to end (they reach the node registry, debug names and
every engine switch, which no other test drives through a whole script).

Demo 03 (worst-case node growth) is left out: it takes about 23 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_recognize_and_parse.py",
    "02_ambiguity_and_counting.py",
    "04_engine_switches.py",
    "05_debug_names.py",
])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
