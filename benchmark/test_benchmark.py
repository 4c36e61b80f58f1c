"""The benchmark's own checks: repeatable count sections and a second seed.

Runs every workload three times, one pass each; takes a few minutes:

    python3 -m pytest benchmark/test_benchmark.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import OUT, WORKLOADS

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace0.json").read_text())
    return result, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_section_repeats_byte_for_byte(workload):
    first = json.dumps(_run(workload, 1)[1]["counts"], sort_keys=True)
    second = json.dumps(_run(workload, 1)[1]["counts"], sort_keys=True)
    assert first == second


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_gives_no_wrong_answer(workload):
    result, record = _run(workload, 2)
    assert result["correct"] and result["attempted"] >= 100
    assert record["counts"], "no count section recorded"
