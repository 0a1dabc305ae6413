"""One builder per subcommand result, read by both the CLI and verify-all.

A fault in one field of a builder's result shows in what the subcommand
prints, fails the criterion that reports the field, and makes verify-all
report that criterion, and no other, as FAIL.
"""

import copy
import json
import re

import pytest

from excmono import a1lab, chevalley, rigidity, twogroup, verify
from excmono.cli import main
from excmono.obs import CheckFailed

PSL2_7 = ["rigid", "--group", "psl2", "--ell", "7", "--classes", "2A,3A,7A"]

# layer, builder, a command that prints its result, the path of the field
# that is changed, the criterion that reports it, the check that fails
FAULTS = [
    (twogroup, "atilde_result", ["atilde", "D6"], ("radical_size",), 3,
     "radical-is-z(g)[2]"),
    (twogroup, "atilde_result", ["atilde", "D6"], ("odd_irreps", "count"), 4,
     "center-and-irrep-count"),
    (chevalley, "monodromy_result", ["monodromy", "E7"],
     ("dim",), 5, "dim-is-rank-plus-roots"),
    (chevalley, "monodromy_result", ["monodromy", "E7"],
     ("kappa_fixed_dim",), 5, "local-dims-as-predicted"),
    (a1lab, "a1_result", ["a1", "--primes", "5,13"], ("fibers",), 7,
     "one-record-per-fiber"),
    (rigidity, "rigid_result", PSL2_7, ("triple", "solution_count"), 8,
     "hurwitz-strictly-rigid"),
]


def field(result, path):
    for key in path:
        result = result[key]
    return result


def off_by_one(real, path):
    """`real` with the field at `path` of its result raised by one; the
    result is copied, so no cached result changes."""
    def faulty(*args):
        res = copy.deepcopy(real(*args))
        field(res, path[:-1])[path[-1]] += 1
        return res
    return faulty


def printed(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["result"]


@pytest.mark.parametrize(
    "layer, builder, argv, path, number, name", FAULTS,
    ids=[f"{b}-{'.'.join(p)}" for _, b, _, p, _, _ in FAULTS])
def test_wrong_field_fails_its_criterion(capsys, monkeypatch, layer, builder,
                                         argv, path, number, name):
    want = field(printed(capsys, argv), path)
    monkeypatch.setattr(layer, builder,
                        off_by_one(getattr(layer, builder), path))
    assert field(printed(capsys, argv), path) == want + 1

    fails_only(capsys, number, name)


def fails_only(capsys, number, name):
    """Criterion `number` fails on the check `name`, alone of all the
    criteria, both when called and under verify-all."""
    _, criterion_name, criterion = verify.CRITERIA[number - 1]
    with pytest.raises(CheckFailed, match=f"^{re.escape(name)}: "):
        criterion()

    assert main(["verify-all"]) == 1
    captured = capsys.readouterr()
    criteria = json.loads(captured.out)["result"]["criteria"]
    assert [c["number"] for c in criteria if not c["passed"]] == [number]
    assert criteria[number - 1]["details"]["error"].startswith(
        f"CheckFailed: {name}: ")
    assert f"[FAIL] criterion {number} {criterion_name}" in captured.err


@pytest.mark.parametrize("key, value", [
    ("solution_count", 0), ("solution_count", 119), ("generates", True),
    ("strictly_rigid", True), ("normalized_count", [2, 1])])
def test_wrong_pgl2_fixture_fails_criterion_8(capsys, monkeypatch, key,
                                              value):
    # at ell = 5 = 1 mod 4 the fixture has solutions, none generating PGL2
    real = rigidity.predicted_triple
    monkeypatch.setattr(rigidity, "predicted_triple",
                        lambda ell=5: {**real(ell), key: value})
    argv = ["rigid", "--group", "pgl2", "--ell", "5"]
    assert printed(capsys, argv)[key] == value
    fails_only(capsys, 8, "pgl2-fixture-inside-psl2")
