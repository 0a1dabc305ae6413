"""End-to-end acceptance run: one timed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
happen; budgets are wall-clock seconds.  A criterion that fails raises
CheckFailed, which fails its test.  Caches are cleared before the timed
sections so earlier test files cannot subsidize the numbers.
"""

import subprocess
import sys
import time

from excmono import chevalley, obs, verify
from excmono.affine_k import KappaCharacter
from excmono.chevalley import (
    build_algebra,
    kappa_fixed_dim,
    regular_nilpotent_centralizer,
    v_class_centralizer,
)
from excmono.rootsys import RootSystem, root_system
from oracles import GOLDEN, stdout_digest


def report(number, name, passed, elapsed, budget):
    ok = passed and elapsed < budget
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): "
          f"{elapsed:.2f}s of {budget:g}s budget")
    return ok


def timed(fn, **kw):
    """(details, seconds) of one criterion; a failed check raises."""
    t0 = time.perf_counter()
    details = fn(**kw)
    return details, time.perf_counter() - t0


def test_criterion_1_k_type_table():
    obs.clear_caches()
    details, dt = timed(verify.criterion_k_type_table)
    assert report(1, "k-type table", True, dt, 0.5), details


def test_criterion_2_lattice_quotients():
    details, dt = timed(verify.criterion_lattice_quotients)
    assert report(2, "coroot lattice quotients", True, dt, 1.0), details


def test_criterion_3_tilde_laws():
    obs.clear_caches()
    details, dt = timed(verify.criterion_tilde_laws)
    assert report(3, "two-group laws and radical", True, dt, 0.5), details
    # each group's law checks cover all 2^r * 2^r pairs
    assert details["pairs_checked"] == sum(
        4 ** root_system(label).rank for label in verify.COVERED_LABELS)


def test_criterion_4_center_table():
    obs.clear_caches()
    details, dt = timed(verify.criterion_center_table)
    assert report(4, "center table and odd irreps", True, dt, 2.0), details


def test_criterion_5_chevalley():
    obs.clear_caches()
    details, crit_dt = timed(verify.criterion_chevalley)
    # the E8 values again, from a cold cache, within the same budget
    obs.clear_caches()
    t0 = time.perf_counter()
    alg = build_algebra("E8")
    rs = root_system("E8")
    e8_ok = (alg.dim == 248
             and kappa_fixed_dim(alg, KappaCharacter(rs)) == 120
             and regular_nilpotent_centralizer(alg) == 8
             and v_class_centralizer(alg).centralizer_dim == 120
             and chevalley.monodromy_result("E8", 0, samples=0)["budget"]
             == {"d0": 120, "d1": 8, "dinf": 120})
    e8_dt = time.perf_counter() - t0
    assert report(5, "Chevalley centralizers", e8_ok,
                  crit_dt + e8_dt, 5.0), details


def test_criterion_6_quasiminuscule():
    details, dt = timed(verify.criterion_quasiminuscule)
    assert report(6, "quasi-minuscule dims", True, dt, 1.0), details


def test_criterion_7_a1_lab():
    obs.clear_caches()
    details, dt = timed(verify.criterion_a1_lab)
    assert report(7, "quartic trace lab", True, dt, 2.0), details


def test_criterion_8_rigidity():
    details, dt = timed(verify.criterion_rigidity)
    assert report(8, "rigidity harness", True, dt, 2.0), details


def test_criterion_9_determinism():
    cmd = [sys.executable, "-m", "excmono", "verify-all"]
    t0 = time.perf_counter()
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    dt = time.perf_counter() - t0
    passed = (first.returncode == 0 and second.returncode == 0
              and first.stdout == second.stdout
              and stdout_digest(first.stdout) == GOLDEN["verify-all"])
    assert report(9, "byte-stable manifests", passed, dt, 10.0), (
        first.returncode, second.returncode)


def test_in_process_determinism_recomputes(monkeypatch):
    # with every cache warm, the second pass of criterion 9 must still
    # build each root system its probes need, as a cold pass does
    builds = []
    real = RootSystem.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(RootSystem, "__init__", counting)
    probes = (verify.criterion_k_type_table,
              verify.criterion_lattice_quotients,
              verify.criterion_quasiminuscule)
    obs.clear_caches()
    for fn in probes:
        fn()
    cold = len(builds)
    builds.clear()
    assert verify.criterion_determinism()["stable"]
    assert cold > 0 and len(builds) == cold
