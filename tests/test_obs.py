import ast
import os
from collections import Counter
import subprocess
import sys
from pathlib import Path
from string import Formatter

import pytest

import excmono
from excmono import obs, rootsys, verify
from excmono.cli import COMMANDS, main
from excmono.obs import CheckFailed, check
from oracles import readme_examples, readme_group_text

SRC = Path(excmono.__file__).resolve().parent


class Loud:
    """Counts the times it is formatted into a message."""

    formatted = 0

    def __format__(self, spec):
        Loud.formatted += 1
        return "loud"


def test_check_counts_runs_and_names_the_failure():
    obs.reset()
    check("b-check", True, "never shown")
    check("a-check", 1 == 1, "never shown")
    check("b-check", True, "never shown")
    assert obs.runs() == [{"name": "a-check", "passed": True, "runs": 1},
                          {"name": "b-check", "passed": True, "runs": 2}]
    with pytest.raises(CheckFailed) as exc:
        check("b-check", False, "{} != {:#b}", 3, 5)
    assert str(exc.value) == "b-check: 3 != 0b101"
    assert isinstance(exc.value, AssertionError)
    assert obs.runs()[1] == {"name": "b-check", "passed": False, "runs": 3}
    obs.reset()
    assert obs.runs() == []


def test_detail_is_formatted_only_on_failure():
    obs.reset()
    Loud.formatted = 0
    for _ in range(3):
        check("lazy", True, "value {}", Loud())
    assert Loud.formatted == 0
    with pytest.raises(CheckFailed, match="lazy: value loud"):
        check("lazy", False, "value {}", Loud())
    assert Loud.formatted == 1
    obs.reset()


def test_reset_recomputes_a_memoized_builder():
    obs.reset()
    first = rootsys.root_system("B3")
    built = obs.runs()
    assert built
    assert rootsys.root_system("B3") is first and obs.runs() == built
    obs.reset()
    assert obs.runs() == []
    assert rootsys.root_system("B3") is not first
    assert obs.runs() == built


def test_reset_empties_the_cache_behind_a_patched_attribute(monkeypatch):
    # a tracer or a test may replace the module attribute with a plain
    # wrapper that has no cache_clear; reset must still reach the cache
    real = rootsys.root_system
    monkeypatch.setattr(rootsys, "root_system", lambda label: real(label))
    obs.reset()
    first = rootsys.root_system("B3")
    assert real.cache_info().currsize == 1
    obs.reset()
    assert real.cache_info().currsize == 0
    assert rootsys.root_system("B3") is not first
    assert obs.runs()


def _offences(path):
    """Line numbers of `raise AssertionError`, bare `assert` and a literal
    `"passed": True` dict entry in one source file."""
    tree = ast.parse(path.read_text(), str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                out.append((node.lineno, "raise AssertionError"))
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (isinstance(key, ast.Constant) and key.value == "passed"
                        and isinstance(value, ast.Constant)):
                    out.append((node.lineno, '"passed": literal'))
    return out


def test_guard_scan_sees_each_offence(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text('def f(x):\n    assert x\n'
                   '    if x:\n        raise AssertionError("no")\n'
                   '    return {"name": "n", "passed": True}\n')
    assert [n for n, _ in _offences(bad)] == [2, 4, 5]


def test_src_checks_only_through_obs():
    found = {f"{path.name}:{line}": what
             for path in sorted(SRC.glob("*.py"))
             for line, what in _offences(path)}
    assert found == {}


def _raise_sites(path) -> list:
    """Every `raise` in one source file as module.Qualified.name:Exception,
    the exception being what is raised or the callable that makes it; a
    bare re-raise is `:reraise`."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{prefix}{child.name}.")
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                what = ast.unparse(exc) if exc is not None else "reraise"
                out.append(f"{prefix[:-1]}:{what}")
            visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), f"{path.stem}.")
    return out


def test_raise_scan_sees_each_site(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(x):\n    if x:\n        raise ValueError(x)\n"
                   "    def g():\n        raise make_error()\n"
                   "    return g\n"
                   "class A:\n    def m(self):\n        try:\n"
                   "            pass\n        except OSError:\n"
                   "            raise\n        raise KeyError\n"
                   "raise SystemExit(1)\n")
    assert _raise_sites(mod) == [
        "mod.f:ValueError", "mod.f.g:make_error", "mod.A.m:reraise",
        "mod.A.m:KeyError", "mod:SystemExit"]


# Every `raise` in src/, one entry per site: the input each refuses and
# where that input enters.  A layer below an entry point states its
# preconditions in its docstring and tests them no second time, so a new
# site needs its own entry here and a reason that no entry gives yet.
RAISE_SITES = [
    ("a1lab.scan:ValueError", "a1 --primes: a prime above MAX_Q"),
    ("a1lab.scan:ValueError", "a1 --primes: not a prime that is 1 mod 4"),
    ("a1lab.scan:ValueError",
     "a1 --primes: squares summing above MAX_SUM_Q2"),
    ("affine_k.phi_k:ValueError",
     "k-type: a label without -1 in its Weyl group (odd D)"),
    ("arith.is_prime:OverflowError",
     "an --ell, a1 prime or file: p at or above 2^31"),
    ("cli._cmd_a1:ValueError",
     "a1 --primes: a decimal item of more digits than MAX_Q, before int"),
    ("cli._cmd_a1:ValueError", "a1 --primes: an item that is no integer"),
    ("cli._cmd_a1:ValueError", "a1 --primes lists no prime"),
    ("cli._cmd_a1:ValueError", "a1 --primes lists a prime twice"),
    ("rigidity.load_file_group:ValueError", "file: is not JSON"),
    ("rigidity.load_file_group:ValueError",
     "file: an integer of more digits than int reads"),
    ("rigidity.load_file_group:ValueError", "file: is no JSON object"),
    ("rigidity.load_file_group:ValueError", "file: has an unknown key"),
    ("rigidity.load_file_group:ValueError", "file: p is not a prime"),
    ("rigidity.load_file_group:ValueError",
     "file: n is not an integer in 1 .. MAX_POINTS"),
    ("rigidity.load_file_group:ValueError",
     "file: generators are not n*n integer lists"),
    ("rigidity.load_file_group:ValueError", "file: scalars are not units mod p"),
    ("rigidity.load_file_group:ValueError",
     "file: scalars are not a subgroup of the units"),
    ("rigidity.load_file_group:type(exc)",
     "file: a refusal from the permutations or the closure, with the path"),
    ("cli._cmd_rigid:ValueError", "rigid --ell with a file: group"),
    ("cli.parse_args:ValueError", "no command, or an unknown one"),
    ("cli.parse_args:ValueError",
     "an option the command does not have, a prefix of one among them"),
    ("cli.parse_args:ValueError", "an option without its value"),
    ("cli.parse_args:ValueError",
     "--ell, --seed: a value that is no integer, over 4 300 digits too"),
    ("cli.parse_args:ValueError", "a1 --format: neither json nor csv"),
    ("cli.parse_args:ValueError", "a positional missing or extra"),
    ("cli._cmd_rigid:ValueError", "rigid --group is none of the three"),
    ("cli._cmd_rigid:ValueError", "rigid --classes with pgl2"),
    ("obs.check:CheckFailed", "a named identity failed (exit 1)"),
    ("rigidity.MatrixRep.permutations.point_id:OverflowError",
     "file: frame orbit over MAX_POINTS"),
    ("rigidity.MatrixRep.permutations:ValueError",
     "file: a singular generator"),
    ("rigidity.FiniteGroup._closure:_over_table_bytes",
     "file: a group outgrowing MAX_TABLE_BYTES"),
    ("rigidity.FiniteGroup.class_by_label:ValueError",
     "rigid --classes: a label the group has no class for"),
    ("rigidity.rigid_result:ValueError",
     "rigid --classes: other than three labels"),
    ("rigidity._check_instance:ValueError", "rigid --ell: not an odd prime"),
    ("rigidity._check_instance:_over_table_bytes",
     "rigid --ell: a named group over MAX_TABLE_BYTES"),
    ("rootsys._parse_label:ValueError", "a rank above MAX_RANK"),
    ("rootsys._parse_label:ValueError",
     "a label of no supported letter, or of a rank its letter does not "
     "have (D below rank 3, so no reducible D2) or in other than ASCII "
     "digits"),
    ("rootsys.require_covered:ValueError",
     "atilde, monodromy: a type the two layers do not cover"),
]


def test_src_raises_only_where_input_enters():
    found = sorted(site for path in sorted(SRC.glob("*.py"))
                   for site in _raise_sites(path))
    assert found == sorted(site for site, _ in RAISE_SITES)


def _names(node) -> Counter:
    """How often each name is read as a Name or an Attribute in node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _is_named_tuple(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        (base.id if isinstance(base, ast.Name) else
         getattr(base, "attr", None)) == "NamedTuple" for base in node.bases)


def _unreferenced(paths) -> list:
    """Functions, methods and classes defined in `paths` whose name is read
    as a Name or an Attribute nowhere in `paths` outside the definition
    itself, and NamedTuple fields whose name no Attribute reads in a
    module that defines or imports the field's class (building by keyword
    is no read), as module.Qualified.name; dunder methods are exempt."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in paths}
    total = sum((_names(tree) for tree in trees.values()), Counter())
    # per module: the attributes it reads, and the classes it defines or
    # imports, whose fields those reads may be
    reads, knows = {}, {}
    for stem, tree in trees.items():
        reads[stem] = {n.attr for n in ast.walk(tree)
                       if isinstance(n, ast.Attribute)
                       and isinstance(n.ctx, ast.Load)}
        knows[stem] = {n.name for n in ast.walk(tree)
                       if isinstance(n, ast.ClassDef)} | {
            alias.name for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) for alias in n.names}
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                visit(child, prefix)
                continue
            name = child.name
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and total[name] == _names(child)[name]:
                out.append(prefix + name)
            if _is_named_tuple(child):
                read = set().union(*(reads[stem] for stem in trees
                                     if name in knows[stem]))
                out.extend(f"{prefix}{name}.{field.target.id}"
                           for field in child.body
                           if isinstance(field, ast.AnnAssign)
                           and field.target.id not in read)
            visit(child, f"{prefix}{name}.")

    for stem, tree in trees.items():
        visit(tree, f"{stem}.")
    return out


def test_dead_definition_scan_sees_each_offence(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("class A:\n"
                   "    def used(self):\n        return 1\n"
                   "    def recursive(self):\n        return self.recursive()\n"
                   "    def __len__(self):\n        return 0\n"
                   "def f():\n    return A().used()\n")
    assert _unreferenced([mod]) == ["mod.A.recursive", "mod.f"]
    # a field whose name is read only on an object of another class, in a
    # module that neither defines nor imports the field's class
    irreps, cli = tmp_path / "irreps.py", tmp_path / "cli.py"
    irreps.write_text("from typing import NamedTuple\n"
                      "class OddIrrep(NamedTuple):\n"
                      "    dimension: int\n    group: object\n"
                      "def degree(ir: OddIrrep):\n    return ir.dimension\n")
    cli.write_text("from irreps import degree\n"
                   "print(degree(IRREP), args.group)\n")
    assert _unreferenced([irreps, cli]) == ["irreps.OddIrrep.group"]
    # in a module that imports the class, any read of the name counts
    cli.write_text("from irreps import OddIrrep, degree\n"
                   "print(degree(OddIrrep(1, 2)), args.group)\n")
    assert _unreferenced([irreps, cli]) == []


def test_dead_definition_scan_sees_an_unread_field(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import typing\nfrom typing import NamedTuple\n"
                   "class P(NamedTuple):\n    read: int\n    built: int\n"
                   "class Q(typing.NamedTuple):\n    unread: int\n"
                   "class R:\n    plain: int\n"
                   "def f():\n    return P(read=1, built=2).read, Q(0), R\n")
    assert _unreferenced([mod]) == ["mod.P.built", "mod.Q.unread", "mod.f"]


def test_every_src_definition_is_referenced():
    assert _unreferenced(sorted(SRC.glob("*.py"))) == []


def _cache_offences(path):
    """Line numbers where a name `lru_cache` or `cache_clear` is read,
    imported or defined in one source file."""
    tree = ast.parse(path.read_text(), str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        else:
            names = [getattr(node, attr, None)
                     for attr in ("id", "attr", "name", "arg")]
        if {"lru_cache", "cache_clear"} & set(names):
            out.append(node.lineno)
    return out


def test_cache_scan_sees_each_offence(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import functools\nfrom functools import lru_cache\n"
                   "@functools.lru_cache(maxsize=None)\ndef f():\n"
                   "    return 1\nf.cache_clear()\n")
    assert sorted(set(_cache_offences(bad))) == [2, 3, 6]


def test_every_cache_is_an_obs_memo():
    found = {f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py")) if path.name != "obs.py"
             for line in _cache_offences(path)}
    assert found == set()
    assert _cache_offences(SRC / "obs.py")   # the scan reads the real tree


# a cache stays where a second call site reads it; these are never hit by
# verify-all or a README example, and stay for the reason given
NEVER_HIT = {}


def test_every_memo_is_read_again(capsys, monkeypatch, tmp_path):
    # hits summed over every clear: each command's reset and verify-all's
    # clear before its second pass
    hits = Counter()

    def count_hits():
        for cached in obs._caches:
            name = f"{cached.__module__}.{cached.__qualname__}"
            hits[name] += cached.cache_info().hits

    def counting_clear(real=obs.clear_caches):
        count_hits()
        real()

    obs.clear_caches()
    monkeypatch.setattr(obs, "clear_caches", counting_clear)
    monkeypatch.setattr(verify, "clear_caches", counting_clear)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gens.json").write_text(readme_group_text())
    examples = readme_examples()
    assert ["verify-all"] in examples
    for argv in examples:
        assert main(argv) == 0, argv
    capsys.readouterr()
    count_hits()
    assert sorted(name for name, n in hits.items() if not n) == \
        sorted(NEVER_HIT)


def test_every_detail_formats_with_its_arguments():
    # a failing check must raise CheckFailed, not an error from format()
    calls = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) == "check":
                name, _, detail, *args = node.args
                where = f"{path.name}:{node.lineno}"
                assert isinstance(name, ast.Constant), where
                assert isinstance(detail, ast.Constant), where
                detail.value.format(*range(len(args)))
                fields = [f for _, f, _, _ in Formatter().parse(detail.value)
                          if f is not None]
                assert len(fields) == len(args), where
                calls += 1
    assert calls > 40


# cheap commands whose checks run in builders that are cached in-process
FRESH_COMMANDS = [
    ["atilde", "D6"],
    ["a1", "--primes", "5,13"],
    ["monodromy", "G2"],
    ["k-type", "all"],
    ["rigid", "--group", "psl2", "--ell", "7", "--classes", "2A,3A,7A"],
    ["a1", "--primes", "5,13", "--format", "csv"],
    ["verify-all"],
]


@pytest.mark.parametrize("argv", FRESH_COMMANDS, ids=" ".join)
def test_in_process_manifest_equals_fresh_process(capsys, argv):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    fresh = subprocess.run([sys.executable, "-m", "excmono", *argv],
                           capture_output=True, text=True, env=env,
                           timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    # twice in-process: the second run starts with every cache warm
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out == fresh.stdout


# `cli.main` in a fresh interpreter, then every module it loaded
_LOADED = """
import sys
from excmono.cli import main
code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def loaded_modules(argv) -> set:
    """The modules a fresh `cli.main(argv)` leaves loaded; it must exit 0
    and load no argparse: argv is read against `cli.COMMANDS`, and
    argparse with the gettext and locale its messages load cost
    milliseconds of startup."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    assert not {"argparse", "gettext", "locale"} & set(loaded), argv
    return set(loaded)


LAYERS = {"a1lab", "affine_k", "arith", "chevalley", "linalg", "rigidity",
          "rootsys", "twogroup", "verify"}
# the layers each subcommand may load, besides the package, cli and obs
MAY_LOAD = {
    "roots": {"rootsys"},
    "k-type": {"affine_k", "linalg", "rootsys"},
    "atilde": {"arith", "linalg", "rootsys", "twogroup"},
    "monodromy": {"affine_k", "chevalley", "linalg", "rootsys"},
    "a1": {"a1lab", "arith"},
    "rigid": {"arith", "rigidity"},
    "verify-all": LAYERS,
}


# a fresh run of each subcommand and the layer it must load
LAYER_RUNS = [
    (["a1", "--primes", "5,13"], "excmono.a1lab"),
    (["roots", "A1"], "excmono.rootsys"),
    (["k-type", "all"], "excmono.affine_k"),
    (["atilde", "A1"], "excmono.twogroup"),
    (["monodromy", "G2"], "excmono.chevalley"),
    (["rigid"], "excmono.rigidity"),
    (["verify-all"], "excmono.verify"),
]


def test_every_subcommand_has_its_layers_pinned():
    assert set(MAY_LOAD) == set(COMMANDS) == {
        argv[0] for argv, _ in LAYER_RUNS}
    assert set().union(*MAY_LOAD.values()) == LAYERS


@pytest.mark.parametrize("argv, layer", LAYER_RUNS,
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else v)
def test_subcommand_imports_only_its_own_layer(argv, layer):
    loaded = {m for m in loaded_modules(argv) if m.startswith("excmono.")}
    assert layer in loaded
    allowed = {"excmono.cli", "excmono.obs"} | {
        f"excmono.{m}" for m in MAY_LOAD[argv[0]]}
    assert loaded <= allowed, loaded - allowed


@pytest.mark.parametrize("argv", [["verify-all"], ["a1", "--primes", "5,13"]],
                         ids=" ".join)
def test_subcommand_loads_neither_dataclasses_nor_inspect(argv):
    # importing dataclasses imports inspect, and fractions imports decimal
    # and numbers: milliseconds of startup each
    assert not {"dataclasses", "inspect", "fractions"} & loaded_modules(argv)


@pytest.mark.parametrize("argv", [["--help"], ["--version"]], ids=" ".join)
def test_help_and_version_load_no_layer(argv):
    # loaded_modules asserts exit 0
    loaded = {m for m in loaded_modules(argv) if m.startswith("excmono.")}
    assert loaded == {"excmono.cli", "excmono.obs"}


@pytest.mark.parametrize("argv", [argv for argv, _ in LAYER_RUNS] + [
    ["a1", "--primes", "5,13", "--format", "csv"]], ids=" ".join)
def test_json_subcommand_leaves_csv_unloaded(argv):
    # `a1 --format csv` joins int cells itself, so no command loads csv
    assert "csv" not in loaded_modules(argv)
