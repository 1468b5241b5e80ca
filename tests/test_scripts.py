"""Smoke tests of the example scripts under scripts/."""

import re
import subprocess
import sys

from conftest import ROOT


def run_script(name: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          capture_output=True, text=True, timeout=120)


def test_library_demo():
    proc = run_script("library_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "checker says: ['valid']" in proc.stdout


def test_oracle_sweep():
    proc = run_script("oracle_sweep.py")
    assert proc.returncode == 0, proc.stderr
    counts = re.findall(r"(\d+)/(\d+) dropped conditions caught", proc.stdout)
    assert counts
    assert all(caught == sites for caught, sites in counts)
