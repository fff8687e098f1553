"""Smoke tests: every example script runs to completion.

The examples are part of the public deliverable; these tests execute
each one in a subprocess (with small arguments where supported) and
check for a zero exit code and sane output markers.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str, timeout: int = 600) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "clusters" in out
        assert "new scan targets" in out

    def test_internet_scan(self):
        out = _run("internet_scan.py", "0.05", "1000")
        assert "dealiased hits" in out
        assert "top ASes" in out

    def test_compare_tgas(self):
        out = _run("compare_tgas.py", "5", "3000")
        assert "6Gen" in out and "Entropy/IP" in out and "random" in out

    def test_alias_detection(self):
        out = _run("alias_detection.py")
        assert "stage 1" in out and "stage 2" in out
        assert "True" in out  # clean hits == honest hosts

    def test_adaptive_scan(self):
        out = _run("adaptive_scan.py")
        assert "classic pipeline" in out
        assert "adaptive pipeline" in out

    def test_longitudinal_scan(self):
        out = _run("longitudinal_scan.py", "0.05", "400", "2")
        assert "delta campaigns over a churning world" in out
        assert "full-rescan baseline" in out
        assert "probe cost: delta" in out
        assert "store reloaded" in out

    def test_all_examples_listed(self):
        scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert {
            "quickstart.py",
            "internet_scan.py",
            "compare_tgas.py",
            "alias_detection.py",
            "adaptive_scan.py",
            "longitudinal_scan.py",
        } <= scripts

    def test_custom_world(self):
        out = _run("custom_world.py")
        assert "world file round-trips" in out
        assert "Rogue CDN" in out

    def test_entropy_analysis(self):
        out = _run("entropy_analysis.py")
        assert "Entropy/IP model" in out
        assert "segments and mined values" in out
