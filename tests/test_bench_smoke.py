"""Short runs of the benchmark at its reference seed.

At seed 0 bench/run.py compares every output against bench/reference.json,
and with --trace 1 it also checks the tracer's call-count gates
(tp_repair calls against repaired_count, symmetrize_channel calls per
iteration).  Each gate failure counts as a failed iteration.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload",
                         ["definetti_branch", "risk_gap_dense", "risk_gap_wide_grid",
                          "channel_gen"])
def test_bench_reference_and_trace_gates(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, done.stderr[-2000:]
    assert result["attempted"] > 1
