"""Smoke tests for the example scripts under ``scripts/``: each runs in a
subprocess with the package on its path and must exit 0 with its expected
summary line."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          env=env, capture_output=True, text=True, timeout=120,
                          check=False)


def test_build_demo_script_on_the_fixture():
    proc = _run("build_demo.py", "--seed", "11", "--fixture")
    assert proc.returncode == 0, proc.stderr
    assert "pigeonhole: 6/6 proper B-colorings blocked" in proc.stdout


def test_build_demo_script_on_a_sampled_gadget():
    proc = _run("build_demo.py", "--seed", "11")
    assert proc.returncode == 0, proc.stderr
    assert "out of desk range" in proc.stdout


def test_build_demo_script_minor_check():
    proc = _run("build_demo.py", "--seed", "11", "--minor-check", "7,7")
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("minor check K_{7,7} on the gadget: not_found")
               for line in proc.stdout.splitlines()), proc.stdout
