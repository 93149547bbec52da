"""The demos run end to end: each exits 0 in a fresh interpreter (about 1 s
for these two together). 02_overfit_turns.py, a 10 s overfit run, is left
to criterion 5 in test_acceptance.py, which trains the same way."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_autodiff_walkthrough.py",
                                  "03_cli_pipeline.py"])
def test_demo_exits_0(name):
    done = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
