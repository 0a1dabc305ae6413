"""No argv gives a traceback: `cli.main` on argv drawn from the grammar
of `cli.COMMANDS`.

Every subcommand is drawn with valid, lowercase and unknown labels,
prime lists with empty, repeated, negative and composite items, `--ell`
near its bounds, `--classes` lists of 0-5 labels, small random JSON for
`file:` groups and unwritable `--out` paths.  An argv has at most one
fault, so most drawn commands run.  The inputs stay cheap (ell <= 13,
primes <= 61); a costlier one is drawn only where it is
refused before any work.  For every argv the exit code is
0, 1 or 2; exit 2 means empty stdout and one `error:` line; exit 1 means
a `check failed:` line or a manifest with a failed check or verdict.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from excmono.cli import main

# labels each command runs on; the two-group and Chevalley layers cover
# only A1, D(2n), E7, E8 and G2
ROOT_LABELS = ("A1", "B2", "B3", "C2", "C3", "D3", "D4", "D5", "E7",
               "E8", "F4", "G2")
COVERED_LABELS = ("A1", "D4", "D6", "E7", "G2")
# refused by the label parser or by the layers: unknown letters, ranks a
# letter does not have, ranks above MAX_RANK, uncovered types and
# strings that are no label at all
BAD_LABELS = ("", "A", "7", "A0", "A2", "B1", "E6", "E9", "F5", "G3",
              "D15", "B99", "H4", "Z9", "e_7x", "all ", "B3", "D5", "F4",
              "D2")
# primes up to 61 that are 1 mod 4; then primes that are 3 mod 4,
# non-primes, non-integers, and primes above MAX_Q = 1024, which are
# refused before their scan
A1_PRIMES = ("5", "13", "17", "29", "37", "41", "53", "61")
BAD_PRIMES = ("", "0", "1", "2", "3", "7", "43", "-5", "-13", "9", "25",
              "x", "5.0", "1031", "2053")
# odd primes up to 13; then integers near them, and 10007, a prime whose
# group is refused by its size before any closure
ELLS = (3, 5, 7, 11, 13)
BAD_ELLS = (-3, -1, 0, 1, 2, 4, 9, 14, 10007)
CLASS_LABELS = ("1A", "2A", "3A", "4A", "5A", "5B", "6A", "7A", "7B", "13A")
BAD_CLASS_LABELS = ("9Z", "", "x", "2a")
# the places an argv can go wrong; at most one per drawn argv
FAULTS = ("label", "value", "out", "argv")


def _matrices(p: int, n: int):
    """1 or 2 invertible n x n matrices over F_p: elementary and diagonal
    ones, which generate SL_n, GL_n or a subgroup."""
    nu = 2 if p == 5 else 3 if p == 7 else p - 1   # a unit other than 1
    pool = [(nu,), (p - 1,)] if n == 1 else [
        (1, 1, 0, 1), (1, 0, 1, 1), (0, p - 1, 1, 0), (nu, 0, 0, 1),
        (1, 0, 0, nu)]
    return st.lists(st.sampled_from(pool), min_size=1, max_size=2,
                    unique=True).map(lambda ms: [list(m) for m in ms])


@st.composite
def file_groups(draw, fault: bool):
    """The text of a `file:` group: a small matrix group over F_p, p <= 7,
    in 1 or 2 dimensions, linear or modulo {1, -1}; with `fault`, a blob
    with one bad value, a missing or an extra key, or no JSON object."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.sampled_from((1, 2)))
    blob = {"p": p, "n": n, "generators": draw(_matrices(p, n)),
            "scalars": draw(st.sampled_from((None, [1, p - 1])))}
    if not fault:
        return json.dumps(blob)
    kind = draw(st.sampled_from(("p", "n", "generators", "scalars",
                                 "missing", "extra", "json", "text")))
    if kind == "p":
        blob["p"] = draw(st.sampled_from((1, 4, -3, "5", None)))
    elif kind == "n":
        blob["n"] = draw(st.sampled_from((0, -1, 2.0, n + 1)))
    elif kind == "generators":
        blob["generators"] = draw(st.sampled_from((
            [], [[1]], [[True] * n * n], "x", [[0] * n * n],
            [[p] * n * n])))
    elif kind == "scalars":
        blob["scalars"] = draw(st.sampled_from(([], [0], [1, 2], "x")))
    elif kind == "missing":
        del blob[draw(st.sampled_from(sorted(blob)))]
    elif kind == "extra":
        blob["cap"] = 1
    elif kind == "json":
        blob = draw(st.one_of(st.none(), st.integers(), st.text(max_size=3),
                              st.lists(st.integers(), max_size=3)))
    else:
        return draw(st.sampled_from(("", "{", "not json", "\x00\xff")))
    return json.dumps(blob)


def _opt(flag, values):
    """No token, or `flag` and a drawn value, as two tokens or as one
    `flag=value`."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]),
                     values.map(lambda v: [f"{flag}={v}"]))


def _label(draw, fault, pool):
    label = draw(st.sampled_from(BAD_LABELS if fault == "label" else pool))
    return draw(st.sampled_from((label, label.lower())))


seeds = st.integers(-2, 10 ** 20).map(str)
# verify-all, which runs every layer, is drawn a third as often
COMMANDS = ("roots", "k-type", "atilde", "monodromy", "a1", "rigid") * 3 \
    + ("verify-all",)


@st.composite
def argvs(draw):
    """(argv, out kind, file: group text or None) of one command, with at
    most one fault."""
    command = draw(st.sampled_from(COMMANDS))
    fault = draw(st.sampled_from((None,) * len(FAULTS) + FAULTS))
    bad = fault == "value"
    argv = [command]
    group = None
    if command == "roots":
        argv.append(_label(draw, fault, ROOT_LABELS))
    elif command == "k-type":
        argv.append(_label(draw, fault, ROOT_LABELS + ("all",)))
    elif command == "atilde":
        argv.append(_label(draw, fault, COVERED_LABELS))
    elif command == "monodromy":
        argv += [_label(draw, fault, COVERED_LABELS),
                 *draw(_opt("--seed", seeds))]
    elif command == "a1":
        items = st.lists(st.sampled_from(A1_PRIMES), min_size=1, max_size=3,
                         unique=True)
        if bad:   # one bad item, or a good one twice
            items = st.tuples(items, st.sampled_from(BAD_PRIMES + ("5",))
                              ).map(lambda t: [*t[0], t[1]])
        argv += draw(_opt("--primes", items.map(",".join)))
        argv += draw(_opt("--format", st.sampled_from(("json", "csv"))))
    elif command == "rigid":
        kind = draw(st.sampled_from(("pgl2", "psl2", "file", None)))
        where = None
        if bad:   # a group, a file, an ell or classes it refuses
            where = draw(st.sampled_from(("group", "file", "ell", "classes")))
            kind = "file" if where == "file" else kind
        if where == "group":
            argv += ["--group", draw(st.sampled_from(("sl2", "", "PSL2")))]
        elif kind == "file":
            group = draw(file_groups(fault=where == "file"))
        elif kind is not None:
            argv += ["--group", kind]
        if where == "ell" or kind != "file":
            argv += draw(_opt("--ell", st.sampled_from(
                BAD_ELLS if where == "ell" else ELLS).map(str)))
        labels = st.sampled_from(CLASS_LABELS + (
            BAD_CLASS_LABELS if where == "classes" else ()))
        sizes = st.integers(0, 5) if where == "classes" else st.just(3)
        if kind != "pgl2" or where == "classes":
            argv += draw(_opt("--classes", sizes.flatmap(
                lambda k: st.lists(labels, min_size=k, max_size=k)
            ).map(",".join)))
    else:
        argv += draw(_opt("--seed", seeds))
    if fault == "argv":
        argv += draw(st.sampled_from((["--bogus"], ["extra"], ["--ell", "5"],
                                      ["--format", "xml"])))
    if fault == "out":
        out = draw(st.sampled_from(("", "missing-dir", "a-dir")))
    else:
        out = draw(st.sampled_from((None, "file")))
    return argv, out, group


def run_main(argv):
    """(exit code, stdout, stderr) of `cli.main(argv)` in this process; any
    exception, SystemExit among them, propagates and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


ERROR_LINE = re.compile(r"^error: ")


def _failed_manifest(stdout: str) -> bool:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    return not all(c["passed"] for c in doc["checks"])


@settings(max_examples=150, deadline=None, derandomize=True,
          database=None)
@given(argvs())
def test_no_argv_gives_a_traceback(drawn):
    argv, out_kind, group = drawn
    with tempfile.TemporaryDirectory() as tmp:
        if group is not None:
            path = Path(tmp, "gens.json")
            path.write_text(group)
            argv = [*argv[:1], "--group", f"file:{path}", *argv[1:]]
        out = {None: None, "file": str(Path(tmp, "out.json")), "": "",
               "missing-dir": str(Path(tmp, "missing", "out.json")),
               "a-dir": tmp}[out_kind]
        if out is not None:
            argv = [*argv[:1], "--out", out, *argv[1:]]
        code, stdout, stderr = run_main(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in stderr, argv
        if code == 2:
            assert stdout == "", argv
            assert len(stderr.splitlines()) == 1, (argv, stderr)
            assert ERROR_LINE.match(stderr), (argv, stderr)
        elif code == 1:
            assert stderr.startswith("check failed: ") or \
                _failed_manifest(stdout), (argv, stderr)
        if out_kind == "file" and code != 2:
            assert Path(out).read_text() == stdout, argv
