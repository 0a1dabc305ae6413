import json
from pathlib import Path

import pytest

from checks import Checker, brute_point_count, num_roots
from excmono.a1lab import FiniteFieldCtx, compute_record
from excmono.cli import main
from run import Op, Runner
from workloads import Workload


def manifest(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def judged(stdout, argv, rc=0, file_order=None, runner=None):
    runner = runner or Runner(Path("."), Checker(seed=1, file_order=file_order))
    op = Op(list(argv), 0.1, 0.1, 20000, rc, stdout)
    runner.judge(op)
    return op


def test_brute_force_recount_agrees_with_compute_record_at_13():
    ctx = FiniteFieldCtx(13)
    for lam in range(2, 13):
        rec = compute_record(ctx, lam)
        assert brute_point_count(13, lam) == rec.point_count_smooth


def test_root_counts_match_the_program():
    from excmono.rootsys import root_system
    for label in ("A1", "B3", "C4", "D5", "E7", "E8", "F4", "G2"):
        assert num_roots(label) == root_system(label).num_roots


@pytest.mark.parametrize("argv", [
    ("rigid", "--group", "psl2", "--ell", "7", "--classes", "2A,3A,7A"),
    ("rigid", "--group", "pgl2", "--ell", "5"),
    ("atilde", "D4"),
    ("monodromy", "G2"),
    ("k-type", "all"),
    ("roots", "F4"),
    ("a1", "--primes", "5,13"),
    ("a1", "--primes", "13,17", "--format", "csv"),
])
def test_real_output_passes_and_corrupted_output_fails(capsys, argv):
    out = manifest(capsys, *argv)
    assert not judged(out, argv).failed
    if argv[-1] == "csv":
        # the n_points of lambda = 2 at q = 13 is off by 4
        head, row, rest = out.split("\n", 2)
        cells = row.split(",")
        cells[7] = str(int(cells[7]) + 4)
        bad = "\n".join([head, ",".join(cells), rest])
    else:
        doc = json.loads(out)
        result = doc["result"]
        if argv[0] == "rigid" and argv[2] == "psl2":
            result["order"] = 169
        elif argv[0] == "rigid":
            result["group_order"] += 1
        elif argv[0] == "atilde":
            result["odd_irreps"]["dims"][0] = 4
        elif argv[0] == "monodromy":
            result["dim"] += 1
        elif argv[0] == "k-type":
            result[0]["k"] = "A1"
        elif argv[0] == "roots":
            result["num_roots"] = 46
        else:
            result["records"][0]["t3"][1] += 1
        bad = json.dumps(doc)
    assert judged(bad, argv).failed


def test_file_group_order_is_checked(capsys, tmp_path):
    wl = Workload("cli_readme", 4, str(tmp_path))
    wl.write_inputs()
    argv = ["rigid", "--group", f"file:{wl.file_path}"]
    out = manifest(capsys, *argv)
    assert not judged(out, argv, file_order=wl.file_order).failed
    assert judged(out, argv, file_order=wl.file_order + 1).failed


def test_exit_code_garbage_and_changed_stdout_fail(capsys):
    argv = ("atilde", "A1")
    out = manifest(capsys, *argv)
    assert judged(out, argv, rc=1).failed
    assert judged("not json", argv).failed
    runner = Runner(Path("."), Checker(seed=1))
    assert not judged(out, argv, runner=runner).failed
    changed = out.replace('"version"', '"version" ', 1)
    assert judged(changed, argv, runner=runner).failed
