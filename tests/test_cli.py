import gc
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import excmono
from excmono import affine_k, obs, twogroup
from excmono.a1lab import MAX_Q, MAX_SUM_Q2, a1_result, render_csv
from excmono.arith import is_prime
from excmono.chevalley import ChevalleyAlgebra, monodromy_result
from excmono.cli import COMMANDS, main, parse_args
from excmono.rigidity import MAX_POINTS
from excmono.rootsys import MAX_RANK
from oracles import (GOLDEN, README, readme_examples, readme_group_text,
                     stdout_digest)



def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_k_type_single_row(capsys):
    code, doc, _ = run_json(capsys, "k-type", "E8")
    assert code == 0
    assert doc["result"] == {"g": "E8", "k": "D8", "pi1": "Z/2",
                             "c_alpha_prime": 2}
    assert doc["version"] == "0.1.0"
    assert all(c["passed"] for c in doc["checks"])


def test_k_type_all_rows(capsys):
    code, doc, _ = run_json(capsys, "k-type", "all")
    assert code == 0
    assert len(doc["result"]) == 18
    assert {r["g"] for r in doc["result"]} >= {"A1", "E7", "E8", "F4", "G2"}


def test_roots_card(capsys):
    code, doc, _ = run_json(capsys, "roots", "E8")
    assert code == 0
    assert doc["result"]["num_roots"] == 240
    assert doc["result"]["rank"] == 8


def test_bad_label_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "roots", "Z9")
    assert code == 2
    assert out == ""
    assert "unsupported" in err


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(capsys, "frobnicate") == (
        2, "", "error: unknown command 'frobnicate'; choose from roots, "
        "k-type, atilde, monodromy, a1, rigid, verify-all\n")


def test_csv_only_for_a1(capsys):
    # --format belongs to the a1 subcommand alone, so k-type refuses it
    assert run_cli(capsys, "k-type", "E8", "--format", "csv") == (
        2, "", "error: k-type has no option '--format'\n")


@pytest.mark.parametrize("argv, line", [
    ([], "no command; choose from roots, k-type, atilde, monodromy, a1, "
         "rigid, verify-all"),
    (["--out", "x.json", "roots", "A1"], "unknown command '--out'; choose "
     "from roots, k-type, atilde, monodromy, a1, rigid, verify-all"),
    (["a1", "--bogus"], "a1 has no option '--bogus'"),
    # no prefix of an option is read as the option
    (["a1", "--prim", "5,13"], "a1 has no option '--prim'"),
    (["a1", "--primes"], "--primes needs a value"),
    (["a1", "--format", "xml"], "--format: 'xml' is not one of json, csv"),
    (["a1", "--format=xml"], "--format: 'xml' is not one of json, csv"),
    (["roots"], "roots takes LABEL; got none"),
    (["roots", "A1", "B2"], "roots takes LABEL; got 'A1 B2'"),
    (["rigid", "extra"], "rigid takes no argument; got 'extra'"),
    (["rigid", "--ell", "7.0"], "--ell: '7.0' is not an integer"),
    (["monodromy", "G2", "--seed="], "--seed: '' is not an integer"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_usage_error_is_one_line(capsys, argv, line):
    assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("argv", [
    ["rigid", "--group", "psl2", "--ell", "{}"],
    ["monodromy", "G2", "--seed", "{}"],
    ["verify-all", "--seed={}"],
], ids=" ".join)
def test_oversize_int_option_is_one_clipped_line(capsys, argv):
    # int refuses 5 000 digits; the refusal echoes a 24-character prefix
    argv = [a.format("9" * 5000) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and len(err) < 200, err
    assert err.endswith(f": {'9' * 24 + '...'!r} is not an integer\n"), err


def test_option_forms_and_order_give_one_manifest(capsys):
    # --opt=value, options before the positional, and the last value wins
    _, want, _ = run_cli(capsys, "monodromy", "G2", "--seed", "3")
    for argv in (["monodromy", "--seed=3", "G2"],
                 ["monodromy", "--seed", "9", "G2", "--seed", "3"]):
        assert run_cli(capsys, *argv)[:2] == (0, want), argv
    assert parse_args(["a1", "--primes=5,13"]).primes == "5,13"
    assert parse_args(["rigid", "--classes="]).classes == ""


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["a1", "--help"],
                                  ["--version"]], ids=" ".join)
def test_help_and_version_exit_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    if argv == ["--version"]:
        assert out == f"{excmono.__version__}\n"
    else:   # one line per command and one for its help
        assert out.startswith("usage: excmono COMMAND")
        for command, (_, text, positionals, options) in COMMANDS.items():
            assert f"\n  {command}" in out and f"\n      {text}\n" in out
            assert all(name in out for name in options)


def test_atilde_summary(capsys):
    code, doc, _ = run_json(capsys, "atilde", "G2")
    assert code == 0
    res = doc["result"]
    assert res["order"] == 8 and res["center"] == "mu2"
    assert res["odd_irreps"] == {"count": 1, "dims": [2]}


def test_monodromy_report(capsys):
    code, doc, _ = run_json(capsys, "monodromy", "E7")
    assert code == 0
    res = doc["result"]
    assert res["dim"] == 133 and res["kappa_fixed_dim"] == 63
    assert res["budget"] == {"d0": 63, "d1": 7, "dinf": 63}
    assert res["quasiminuscule"]["dim"] == 133
    assert all(c["passed"] for c in doc["checks"])


# every type `require_covered` admits up to MAX_RANK but A1, which has no
# v-class witness
BUDGET_TYPES = [f"D{n}" for n in range(4, MAX_RANK + 1, 2)] + ["E7", "E8",
                                                               "G2"]


@pytest.mark.parametrize("label", BUDGET_TYPES)
def test_monodromy_reports_the_budget_for_every_covered_type_but_a1(
        capsys, label):
    code, doc, _ = run_json(capsys, "monodromy", label)
    assert code == 0
    res = doc["result"]
    budget = res["budget"]
    assert res["v_class"]["centralizer_dim"] == budget["dinf"]
    assert budget["d0"] + budget["d1"] + budget["dinf"] == res["dim"]
    assert {"name": "v-class-centralizer", "passed": True,
            "runs": 1} in doc["checks"]


def test_monodromy_a1_reports_no_budget(capsys):
    code, doc, _ = run_json(capsys, "monodromy", "A1")
    assert code == 0
    assert "v_class" not in doc["result"] and "budget" not in doc["result"]


@pytest.mark.parametrize("command", ["roots", "k-type", "atilde",
                                     "monodromy"])
def test_d2_is_refused_as_a_label(capsys, command):
    # D2 = A1 x A1 is reducible; the label parser admits D from rank 3
    assert run_cli(capsys, command, "D2") == (
        2, "", "error: unsupported Cartan type 'D2'\n")


def test_monodromy_label_case_does_not_change_the_result(capsys):
    # the budget and quasi-minuscule labels are matched against rs.label
    _, upper, _ = run_json(capsys, "monodromy", "E7")
    _, lower, _ = run_json(capsys, "monodromy", "e7")
    assert lower["result"] == upper["result"]
    # e7's dual is the system itself, not a second build as E7
    assert lower["checks"] == upper["checks"]


def test_failed_chevalley_identity_is_a_check_failure(capsys, monkeypatch):
    # a wrong centralizer dimension is a failed identity (exit 1), not a
    # usage error (exit 2)
    real = ChevalleyAlgebra.centralizer_dim
    monkeypatch.setattr(ChevalleyAlgebra, "centralizer_dim",
                        lambda alg, x: real(alg, x) + 1)
    code, out, err = run_cli(capsys, "monodromy", "G2")
    assert code == 1
    assert out == ""
    assert err.startswith("check failed: ") and "centralizer" in err, err


def test_monodromy_seed_is_recorded(capsys):
    code, doc, _ = run_json(capsys, "monodromy", "G2", "--seed", "7")
    assert code == 0
    assert doc["result"]["jacobi_probe"] == {"samples": 500, "seed": 7}
    assert doc["parameters"] == {"label": "G2", "seed": 7}
    assert {"name": "jacobi-identity-sampled", "passed": True,
            "runs": 500} in doc["checks"]


def test_monodromy_zero_samples_runs_no_jacobi_check():
    # verify-all criterion 5 samples E8 alone, so the other labels take 0
    obs.reset()
    res = monodromy_result("G2", 0, samples=0)
    assert res["jacobi_probe"] == {"samples": 0, "seed": 0}
    assert "jacobi-identity-sampled" not in [c["name"] for c in obs.runs()]


def test_a1_json_records(capsys):
    code, doc, _ = run_json(capsys, "a1", "--primes", "5")
    assert code == 0
    assert doc["result"]["fibers"] == 3
    assert [r["lambda"] for r in doc["result"]["records"]] == [2, 3, 4]


def test_a1_csv_matches_library(capsys):
    code, out, _ = run_cli(capsys, "a1", "--primes", "5,13", "--format", "csv")
    assert code == 0
    assert out == render_csv(a1_result([5, 13])["records"])
    assert out.splitlines()[0].startswith("q,lambda,t1_re")


def test_a1_bad_prime_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "a1", "--primes", "7")
    assert code == 2
    assert "7" in err
    # no prime at all, a prime listed twice, the even prime and an odd
    # composite, which `scan` refuses before any field context is built
    for primes in ("", ",", "5,5", "13,5,13", "2", "9"):
        code, out, err = run_cli(capsys, "a1", "--primes", primes)
        assert code == 2, primes
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_a1_non_integer_prime_names_the_flag(capsys):
    for primes, item in (("0x11", "0x11"), ("5,13a", "13a"), ("5, ,13", " ")):
        code, out, err = run_cli(capsys, "a1", "--primes", primes)
        assert code == 2 and out == ""
        assert err == f"error: --primes: {item!r} is not an integer\n", err


def test_a1_prime_over_the_bound_is_refused_quickly(capsys):
    # 1033 is a prime = 1 mod 4 just above MAX_Q; its scan would take 7 s
    for primes in ("1033", "5,1033"):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "a1", "--primes", primes)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err == "error: 1033 is above the bound MAX_Q = 1024 " \
            "on the a1 prime\n", err


def test_a1_list_over_the_squares_bound_is_refused_quickly(capsys):
    # all 83 admitted primes: their scans once took 28.8 s and 128 MB
    primes = [q for q in range(5, MAX_Q + 1, 4) if is_prime(q)]
    assert len(primes) == 83
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "a1", "--primes",
                             ",".join(map(str, primes)))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == "error: the a1 primes' squares sum to 26685419, above " \
        f"the bound MAX_SUM_Q2 = {MAX_SUM_Q2}\n", err


def test_rigid_pgl2_fixture(capsys):
    code, doc, _ = run_json(capsys, "rigid", "--group", "pgl2", "--ell", "5")
    assert code == 0
    res = doc["result"]
    assert res["group_order"] == 120 and res["solution_count"] == 120
    assert res["strictly_rigid"] is False


def test_rigid_pgl2_above_thirteen(capsys):
    # MAX_TABLE_BYTES alone bounds pgl2, so ell = 17 is admitted
    code, doc, _ = run_json(capsys, "rigid", "--group", "pgl2", "--ell", "17")
    assert code == 0
    res = doc["result"]
    assert res["group_order"] == 17 * 16 * 18 == 4896
    assert res["class_sizes"][1] == 17 * 17 - 1 == 288


@pytest.mark.parametrize("classes", ["2A,3A", "2A,3A,7A,7B", ""])
def test_rigid_triple_needs_three_classes(capsys, classes):
    # two labels once raised a TypeError, and a fourth was taken as g0
    code, out, err = run_cli(capsys, "rigid", "--group", "psl2", "--ell", "7",
                             "--classes", classes)
    assert code == 2 and out == ""
    named = {"2A,3A": "'2A,3A' names 2 classes",
             "2A,3A,7A,7B": "'2A,3A,7A,7B' names 4 classes",
             "": "'' names 1 class"}[classes]
    assert err == f"error: --classes {named}; a triple needs 3\n", err


@pytest.mark.parametrize("classes", ["2A,3A,7A", "NOPE", ""])
def test_rigid_pgl2_refuses_classes(capsys, classes):
    # pgl2 reports its fixture triple, so a triple of its own is refused
    code, out, err = run_cli(capsys, "rigid", "--group", "pgl2", "--ell", "7",
                             "--classes", classes)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_rigid_psl2_hurwitz(capsys):
    code, doc, _ = run_json(capsys, "rigid", "--group", "psl2", "--ell", "7",
                            "--classes", "2A,3A,7A")
    assert code == 0
    assert doc["result"]["order"] == 168
    assert doc["result"]["triple"]["strictly_rigid"] is True
    assert {"name": "strictly-rigid", "passed": True, "runs": 1} \
        in doc["checks"]


def test_rigid_file_group_refuses_empty_classes(capsys, tmp_path):
    # "" names one empty label, so it is refused as a triple, not ignored
    path = tmp_path / "gens.json"
    path.write_text(readme_group_text())
    code, out, err = run_cli(capsys, "rigid", "--group", f"file:{path}",
                             "--classes", "")
    assert code == 2 and out == ""
    assert err == "error: --classes '' names 1 class; a triple needs 3\n"


def test_rigid_file_group(capsys, tmp_path):
    path = tmp_path / "sl25.json"
    path.write_text(json.dumps({
        "p": 5, "n": 2,
        "generators": [[1, 1, 0, 1], [0, 4, 1, 0]],
    }))
    code, doc, _ = run_json(capsys, "rigid", "--group", f"file:{path}")
    assert code == 0
    assert doc["result"]["order"] == 120
    assert doc["result"]["center_order"] == 2
    # a file: group gives its own p, so no ell is recorded
    assert doc["parameters"] == {"group": f"file:{path}"}


def test_rigid_file_group_refuses_ell(capsys, tmp_path):
    path = tmp_path / "sl25.json"
    path.write_text(json.dumps(SL25))
    code, out, err = run_cli(capsys, "rigid", "--group", f"file:{path}",
                             "--ell", "13")
    assert code == 2 and out == ""
    assert err == "error: --ell needs --group pgl2 or psl2; a file: group " \
        "gives its own p\n", err


SL25 = {"p": 5, "n": 2, "generators": [[1, 1, 0, 1], [0, 4, 1, 0]]}

BAD_FILE_GROUPS = {
    "top-level-list": [SL25],
    "p-not-prime": dict(SL25, p=6),
    "p-not-integer": dict(SL25, p="5"),
    "n-below-one": dict(SL25, n=0, generators=[]),
    # n basis vectors are n frame points, so n > MAX_POINTS never passes;
    # refused before the n x n frame is built
    "n-over-max-points": dict(SL25, n=10 ** 6, generators=[]),
    "generator-wrong-length": dict(SL25, generators=[[1, 1, 0]]),
    "generator-not-integer": dict(SL25, generators=[[1, 1, 0, 1.5]]),
    "generators-missing": {"p": 5, "n": 2},
    "scalar-not-unit": dict(SL25, scalars=[1, 5]),
    "scalars-not-subgroup": dict(SL25, scalars=[1, 2]),
    # "cap" is no key of a file: group; any unknown key is refused
    "cap-not-integer": dict(SL25, cap="many"),
    # a singular generator's image on the frame orbit is no permutation
    "generator-singular": {"p": 13, "n": 3, "generators": [
        [1, 1, 0, 0, 1, 0, 0, 0, 1], [0, 0, 1, 1, 0, 0, 0, 1, 0],
        [1, 0, 0, 0, 1, 0, 0, 0, 0]]},
    "generator-zero": dict(SL25, generators=[[1, 1, 0, 1], [0, 0, 0, 0]],
                           scalars=[1, 4]),
    # SL2(F_17) moves e_1 to all 288 nonzero vectors, over the 256 bound
    "frame-orbit-over-bound": dict(SL25, p=17, generators=[[1, 1, 0, 1],
                                                           [0, 16, 1, 0]]),
    # raw bytes, written as they are: neither is JSON
    "empty-file": b"",
    "not-utf8": b"\xff",
}


@pytest.mark.parametrize("case", sorted(BAD_FILE_GROUPS))
def test_rigid_bad_file_group_is_usage_error(capsys, tmp_path, case):
    path = tmp_path / "group.json"
    blob = BAD_FILE_GROUPS[case]
    if isinstance(blob, bytes):
        path.write_bytes(blob)
    else:
        path.write_text(json.dumps(blob))
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "rigid", "--group", f"file:{path}")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    # every refusal names the file, the singular generators' too
    assert err.startswith(f"error: {path}: "), err
    if isinstance(blob, bytes):
        assert err.startswith(f"error: {path}: not JSON: "), err
    if case == "cap-not-integer":
        assert err.startswith(f"error: {path}: unknown key 'cap'"), err
    if case == "n-over-max-points":
        assert err == (f"error: {path}: n = 1000000 is not an integer in "
                       f"1 .. {MAX_POINTS}\n"), err


@pytest.mark.parametrize("text", [
    '{{"p": {}, "n": 2, "generators": [[1, 1, 0, 1]]}}',
    '{{"p": 5, "n": 2, "generators": [[1, 1, 0, -{}]]}}',
], ids=["p", "entry"])
def test_rigid_file_integer_over_the_int_limit_is_one_line(capsys, tmp_path,
                                                          text):
    # CPython's int reads at most 4 300 digits; the refusal names the file
    # and gives no advice on process settings
    path = tmp_path / "big.json"
    path.write_text(text.format("9" * 5000))
    code, out, err = run_cli(capsys, "rigid", "--group", f"file:{path}")
    assert (code, out, err) == (2, "", f"error: {path}: an integer has more "
                                "digits than int reads (4 300 by default)\n")


# stdout sha256 of rigidity runs larger than the README examples; every
# key but `checks` is as the matrix-closure groups first printed it, and
# `checks` holds the run counts of the named checks
RIGID_DIGESTS = {
    "rigid --group pgl2 --ell 11":
        "9212a9a41c063cd7dda5182e43d92ae69166543ab4603660d2fbe4f96d736a2c",
    "rigid --group pgl2 --ell 13":
        "4901dd11877fbaf4f7fb5e4297dddbe04c740b6a499fbd2d770be4471512f52b",
    "rigid --group psl2 --ell 13 --classes 2A,3A,13A":
        "e265ec83613ffbe21a71cc4b51351842540a3c1e92451bb5108abc4bbf64bc75",
    "rigid --group psl2 --ell 37 --classes 2A,3A,37A":
        "d01c72f6ad0aa2efdd4a63521c3b68c06a07e259b76c0c6a09fc8c2a3be66253",
}


@pytest.mark.parametrize("cmd", sorted(RIGID_DIGESTS))
def test_larger_rigid_outputs_pinned(capsys, cmd):
    code, out, _ = run_cli(capsys, *cmd.split())
    assert code == 0
    assert stdout_digest(out) == RIGID_DIGESTS[cmd]


HUGE = str(10 ** 18 + 9)


@pytest.mark.parametrize("argv", [
    ["a1", "--primes", HUGE],
    ["a1", "--primes", f"5,{HUGE}"],
    ["rigid", "--ell", HUGE],
    ["rigid", "--group", "psl2", "--ell", HUGE],
    # 8.5 M elements on 258 points of the projective line
    ["rigid", "--group", "psl2", "--ell", "257"],
    ["rigid", "--group", "file:huge.json"],
    # 7.9 M elements of 252 bytes, under the point bound
    ["rigid", "--group", "psl2", "--ell", "251"],
])
def test_huge_prime_is_refused_quickly(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.json").write_text(json.dumps(dict(SL25, p=int(HUGE))))
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("digits", [4000, 5000])
@pytest.mark.parametrize("argv, bound", [
    (["roots", "A{}"], "MAX_RANK = 14"),
    (["k-type", "E{}"], "MAX_RANK = 14"),
    (["atilde", "D{}"], "MAX_RANK = 14"),
    (["monodromy", "G0{}"], "MAX_RANK = 14"),
    (["a1", "--primes", "{}"], f"MAX_Q = {MAX_Q}"),
    (["a1", "--primes", "5,+0{}"], f"MAX_Q = {MAX_Q}"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_oversize_digit_string_is_refused_by_its_length(capsys, argv, bound,
                                                        digits):
    # CPython's int refuses more than 4 300 digits; the input is refused
    # before int sees it, and its echo is cut to a prefix
    argv = [a.format("9" * digits) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and len(err) < 200, err
    assert err.startswith("error: ") and f"the bound {bound}" in err, err


def test_oversize_unsupported_label_echoes_a_prefix(capsys):
    code, out, err = run_cli(capsys, "roots", "Z" + "9" * 5000)
    assert code == 2 and out == ""
    assert err == f"error: unsupported Cartan type {'Z' + '9' * 23 + '...'!r}\n"


def test_rigid_empty_class_label_is_quoted(capsys):
    # the empty label once printed as "no class ; have [...]"
    code, out, err = run_cli(capsys, "rigid", "--group", "psl2", "--ell", "7",
                             "--classes", "2A,,7A")
    assert code == 2 and out == ""
    assert err == "error: no class ''; have ['1A', '7A', '2A', '3A', '7B', " \
        "'4A']\n", err


# each input is refused where it enters, by the function named above it;
# no layer below tests it again
@pytest.mark.parametrize("argv", [
    # _parse_label, before any closure: D starts at rank 3
    ["k-type", "D2"],
    # require_covered, before any two-group, algebra or kappa is built
    ["monodromy", "C3"],
    ["monodromy", "B3"],
    ["monodromy", "D5"],
    ["atilde", "D5"],
    # _check_instance, before the matrices are built
    ["rigid", "--group", "psl2", "--ell", "9"],
    # class_by_label, before a triple is counted
    ["rigid", "--group", "psl2", "--ell", "7", "--classes", "2A,3A,9Z"],
], ids=" ".join)
def test_input_is_refused_where_it_enters(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_rigid_missing_file(capsys, tmp_path):
    # a directory cannot be read as a file either
    for path in (tmp_path / "nope.json", tmp_path):
        code, out, err = run_cli(capsys, "rigid", "--group", f"file:{path}")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and str(path) in err, err


def test_rigid_unknown_group(capsys):
    code, _, err = run_cli(capsys, "rigid", "--group", "m24")
    assert code == 2
    assert "pgl2" in err


def test_out_flag_duplicates_stdout(capsys, tmp_path):
    path = tmp_path / "row.json"
    code, out, _ = run_cli(capsys, "k-type", "G2", "--out", str(path))
    assert code == 0
    assert path.read_text() == out


def test_unwritable_out_is_refused_before_the_command(capsys, tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(affine_k, "k_type_row", lambda label: pytest.fail(
        "the command ran although --out cannot be written"))
    for path in (str(tmp_path / "missing" / "x.json"), ""):
        code, out, err = run_cli(capsys, "k-type", "G2", "--out", path)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert repr(path) in err and "Traceback" not in err


# a write past RLIMIT_FSIZE fails with EFBIG once SIGXFSZ is ignored: the
# --out file takes the open and the first 64 bytes, then its close fails
_OUT_OVER_FSIZE = """
import resource, signal
from excmono.cli import run
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64))
run()
"""


def test_failed_out_write_prints_no_manifest(tmp_path):
    pytest.importorskip("resource")
    path = tmp_path / "row.json"
    proc = fresh_python("-c", _OUT_OVER_FSIZE, "k-type", "G2", "--out",
                        str(path))
    err = proc.stderr.decode()
    assert proc.returncode == 2 and proc.stdout == b"", err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")


def test_failed_command_leaves_an_old_out_file_whole(capsys, tmp_path):
    path = tmp_path / "row.json"
    path.write_text("old\n")
    code, out, _ = run_cli(capsys, "k-type", "Z9", "--out", str(path))
    assert code == 2 and out == "" and path.read_text() == "old\n"
    code, out, _ = run_cli(capsys, "k-type", "G2", "--out", str(path))
    assert code == 0 and path.read_text() == out


# ------------------------------------------------------------ exit path

def fresh_python(*args):
    """`python *args` in a fresh interpreter that imports this excmono."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(excmono.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, timeout=60)


def test_main_never_freezes_the_collector(capsys):
    before = gc.get_freeze_count()
    assert main(["roots", "A1"]) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, code", [
    (["roots", "A1"], 0),
    # PSL2(F_3) is A4; (1A, 1A, 1A) is no strictly rigid triple
    (["rigid", "--group", "psl2", "--ell", "3", "--classes", "1A,1A,1A"], 1),
    (["roots", "Z9"], 2),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_process_entry_exits_with_mains_code(tmp_path, argv, code):
    out = tmp_path / "out.json"
    proc = fresh_python("-m", "excmono", *argv, "--out", str(out))
    assert proc.returncode == code, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == out.read_bytes()
    assert bool(proc.stdout) == (code != 2)


_RUN_WITH_ATEXIT = """
import atexit, gc, sys
from excmono.cli import run
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
sys.argv[1:] = ["roots", "A1"]
run()
"""


def test_process_entry_freezes_and_still_runs_atexit():
    proc = fresh_python("-c", _RUN_WITH_ATEXIT)
    assert proc.returncode == 0, proc.stderr
    manifest, atexit_line = proc.stdout.decode()[:-1].rsplit("\n", 1)
    assert json.loads(manifest)["result"]["rank"] == 1
    assert atexit_line == "frozen True"


@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
def test_full_stdout_is_a_usage_error(unbuffered):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full to write to")
    env = dict(os.environ,
               PYTHONPATH=str(Path(excmono.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "excmono", "roots", "A1"],
                              stdout=full, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    # one line, so no traceback, no "Exception ignored" and no "done" line
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: stdout: "), err


def test_installed_script_is_the_process_entry():
    text = (README.parent / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'excmono = "excmono.cli:run"'


def test_key_error_in_a_layer_is_no_usage_error(capsys, monkeypatch):
    # a KeyError is a bug in the program, not bad input: it is not exit 2
    def broken(label):
        raise KeyError(label)

    monkeypatch.setattr(twogroup, "atilde_result", broken)
    with pytest.raises(KeyError):
        main(["atilde", "G2"])


def test_manifest_is_sorted_and_stable(capsys):
    _, out1, _ = run_cli(capsys, "atilde", "D6")
    _, out2, _ = run_cli(capsys, "atilde", "D6")
    assert out1 == out2
    doc = json.loads(out1)
    assert list(doc) == sorted(doc)


def test_verify_all(capsys):
    code, out, err = run_cli(capsys, "verify-all")
    assert code == 0
    # in-process, counts included, as in the fresh processes of criterion 9
    assert stdout_digest(out) == GOLDEN["verify-all"]
    doc = json.loads(out)
    assert doc["result"]["all_passed"] is True
    numbers = [c["number"] for c in doc["result"]["criteria"]]
    assert numbers == list(range(1, 10))
    assert err.count("[PASS]") == 9
    assert doc["parameters"] == {"seed": 0}


def test_verify_all_has_no_fast_flag(capsys):
    assert run_cli(capsys, "verify-all", "--fast") == (
        2, "", "error: verify-all has no option '--fast'\n")


# ------------------------------------------------------------ README

def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    # the README's example file group, where its examples expect gens.json;
    # running from tmp_path keeps `file:gens.json` literal in `parameters`
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gens.json").write_text(readme_group_text())
    examples = readme_examples()
    assert len(examples) >= 10
    assert sorted(map(shlex.join, examples)) == sorted(GOLDEN)
    for argv in examples:
        try:
            parse_args(argv)
        except ValueError as exc:
            pytest.fail(f"the CLI rejects README example {argv}: {exc}")
        if argv[0] == "verify-all":
            continue  # criterion 9 runs it
        assert main(argv) == 0, argv
        assert stdout_digest(capsys.readouterr().out) == \
            GOLDEN[shlex.join(argv)], argv


def test_failed_check_in_verify_all_is_reported(capsys, monkeypatch):
    # one wrong field in the atilde result fails criterion 4 alone
    real = twogroup.atilde_result

    def off_by_one(label):
        res = real(label)
        if label != "D6":
            return res
        return dict(res, odd_irreps=dict(res["odd_irreps"], count=3))

    monkeypatch.setattr(twogroup, "atilde_result", off_by_one)
    code, doc, err = run_json(capsys, "verify-all")
    assert code == 1
    assert err.count("[PASS]") == 8 and err.count("[FAIL]") == 1
    crit = doc["result"]["criteria"][3]
    assert crit["passed"] is False and doc["result"]["all_passed"] is False
    assert crit["details"]["error"].startswith(
        "CheckFailed: center-and-irrep-count: D6")
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["center-and-irrep-count"]["passed"] is False
    assert checks["criterion-4-center-table-and-odd-irreps"] == {
        "name": "criterion-4-center-table-and-odd-irreps", "passed": False,
        "runs": 1}
    assert all(c["passed"] for name, c in checks.items()
               if name not in ("center-and-irrep-count",
                               "criterion-4-center-table-and-odd-irreps"))
