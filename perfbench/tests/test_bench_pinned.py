import json
import os
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from run import PINNED_DIR, PINNED_PASS_S, pinned_scaled
from workloads import WORKLOADS


def test_pinned_scaled_reads_the_scale_when_both_sides_match():
    assert pinned_scaled(6.0, [2.0, 2.2], [2.0, 2.2]) == pytest.approx(6.0)


def test_a_slow_phase_that_stretches_both_sides_cancels_out():
    program, pinned = [3.0, 3.3, 2.9], [3.1, 3.2, 3.0]
    slow = [1.7 * t for t in program], [1.7 * t for t in pinned]
    assert pinned_scaled(5.0, *slow) == pytest.approx(
        pinned_scaled(5.0, program, pinned))


def test_a_slower_program_shows_in_full():
    pinned = [3.1, 3.2, 3.0]
    assert pinned_scaled(5.0, [1.25 * t for t in pinned], pinned) == \
        pytest.approx(1.25 * 5.0)


def test_every_workload_has_a_scale():
    assert set(PINNED_PASS_S) == set(WORKLOADS)


def test_pinned_copy_runs_on_its_own():
    assert PINNED_DIR == BENCH / "pinned"
    env = dict(os.environ, PYTHONPATH=str(PINNED_DIR))
    out = subprocess.run([sys.executable, "-m", "excmono", "roots", "G2"],
                         env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=60, check=True)
    assert json.loads(out.stdout)["result"]["num_roots"] == 12
