"""The demos run end to end (they reach debug names and every engine
switch, which no other test drives through a whole script).  Demo 04
asserts that the nullability switch changes nullability work only: both
engines create the same nodes and make the same derive calls.  Demo 05
asserts the naming discipline on every named node it reaches.

Demo 03 (worst-case node growth, cubic) is left out: it takes about 10 s
on a 2-CPU host, and CI runs it as a step of its own.
"""

import pytest

from conftest import ROOT, run_python


@pytest.mark.parametrize("demo", [
    "01_recognize_and_parse.py",
    "02_ambiguity_and_counting.py",
    "04_engine_switches.py",
    "05_debug_names.py",
])
def test_demo_runs(demo):
    proc = run_python(str(ROOT / "demos" / demo))
    assert proc.returncode == 0, proc.stderr
