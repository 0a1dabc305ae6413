"""Every `check` site in src/ is seen to fail.

`FAULTS` maps each `check` name to a fault, or to a list of faults, at
least one per site of the name.  A fault is a monkeypatch of a single
input or intermediate, the code that must catch it, the command that
reaches that code where one is cheap, and, where a name has two sites,
text of the detail that tells them apart.  The fault must trip its own
check before any other fires.  An AST scan keeps the table's keys equal
to the check names in src/ and counts each name's `check` calls, so a
new check site needs a fault in the same change.  This is the
fault-table form of mutation testing (DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978), with one
hand-placed mutant per check site.
"""

import ast
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

import excmono
from excmono import (a1lab, affine_k, arith, chevalley, obs, rigidity,
                     rootsys, twogroup, verify)
from excmono.chevalley import ChevalleyAlgebra, build_algebra
from excmono.cli import main
from excmono.obs import CheckFailed
from excmono.rootsys import RootSystem, root_system
from excmono.twogroup import TildeGroup, build_tilde_group

SRC = Path(excmono.__file__).resolve().parent

A1_5 = ("a1", "--primes", "5")
A1_13 = ("a1", "--primes", "13")
ATILDE_A1 = ("atilde", "A1")
MONODROMY_D4 = ("monodromy", "D4")
MONODROMY_G2 = ("monodromy", "G2")
PGL2_5 = ("rigid", "--group", "pgl2", "--ell", "5")
PSL2_5 = ("rigid", "--group", "psl2", "--ell", "5")


def after(owner, attr, change):
    """A fault: `owner.attr` returns change(result, *args) of the real
    call in place of the result."""
    def plant(mp):
        real = getattr(owner, attr)
        mp.setattr(owner, attr, lambda *args: change(real(*args), *args))
    return plant


def before(owner, attr, change):
    """A fault: `owner.attr` is called with change(*args) in place of
    its arguments."""
    def plant(mp):
        real = getattr(owner, attr)
        mp.setattr(owner, attr, lambda *args: real(*change(*args)))
    return plant


def replace(owner, attr, value):
    """A fault: `owner.attr` is `value`."""
    return lambda mp: mp.setattr(owner, attr, value)


def cartan(letter, data):
    """A fault: the (cartan, coroot_norms) of `letter` are `data`."""
    def plant(mp):
        real = rootsys._cartan_data
        mp.setattr(rootsys, "_cartan_data", lambda let, rank: (
            data if let == letter else real(let, rank)))
    return plant


def power_sum(change):
    """A fault: `a1lab._power_sum(counts, j)` moved by change(j), an
    (re, im) pair."""
    def plant(mp):
        real = a1lab._power_sum
        mp.setattr(a1lab, "_power_sum", lambda counts, j: tuple(
            map(sum, zip(real(counts, j), change(j)))))
    return plant


def extension_shift(shift):
    """A fault: every E(lam) of `a1lab.extension_sums` moved by
    shift(q) in its real part."""
    return after(a1lab, "extension_sums", lambda table, ctx: tuple(
        e and (e[0] + shift(ctx.p), e[1]) for e in table))


def scan(*primes):
    return lambda: a1lab.scan(list(primes))


def _closure_loses_a_root(mp):
    # alpha_1 goes missing from the sorted roots of every closure
    real = RootSystem._sort_roots

    def sort_roots(rs):
        real(rs)
        rs.roots.remove(rs.positive_roots[0])
    mp.setattr(RootSystem, "_sort_roots", sort_roots)


def _drop_last_class(found, group, conj):
    classes, conjugator = found
    return classes[:-1], conjugator


def _reversed_generators(group, ell):
    group.generators.reverse()
    return group


def _shifted_index(mp):
    # an even shift keeps nu, the least z of odd index; only counts move
    real = a1lab._extension_table
    mp.setattr(a1lab, "_extension_table",
               lambda index: real([*index[:2], (index[2] + 2) % 4,
                                   *index[3:]]))


def _square_roots_off(mp):
    real = a1lab.FiniteFieldCtx.__init__

    def init(ctx, p):
        real(ctx, p)
        ctx.square_roots = [n + 1 for n in ctx.square_roots]
    mp.setattr(a1lab.FiniteFieldCtx, "__init__", init)


def _extra_solution_off_the_rep(hits, group, g0, c1, cinf):
    # one more solution at every g0 but its class's representative
    return hits + [c1.rep] * (g0 != group.classes[group.class_of[g0]].rep)


def _grown_first_class(found, group, conj):
    classes, conjugator = found
    return ([classes[0]._replace(size=classes[0].size + 1), *classes[1:]],
            conjugator)


def _conjugators_times_a_generator(found, group, conj):
    # t_x z for every member x: each t_y^-1 s t_x then fixes z^-1 r z, not
    # r, and only the commute test with r keeps C(z^-1 r z) out of H
    classes, conjugator = found
    z_table = group.generators[-1] + group._tail
    return classes, [group.index[group.elements[t].translate(z_table)]
                     for t in conjugator]


def _flipped_transposed_cocycle_bit(mp):
    # beta(-, a) of a = 1 loses its bit 0 before the laws are checked
    real = TildeGroup._check_laws

    def check_laws(tg):
        tg._cocycle_t_mask[1] ^= 1
        real(tg)
    mp.setattr(TildeGroup, "_check_laws", check_laws)


def _first_zero_read_as_two(labels, alg, h):
    labels = list(labels)
    labels[labels.index(0)] = 2
    return labels


def _single_bracket_off(mp):
    # [h_i, h_j] of two Cartan basis vectors comes out h_j, not 0; no
    # centralizer column reads such a product, since every witness is a
    # sum of root vectors
    real = ChevalleyAlgebra.bracket

    def bracket(alg, i, j):
        return {j: 1} if i < alg.rank and j < alg.rank else real(alg, i, j)
    mp.setattr(ChevalleyAlgebra, "bracket", bracket)


# name -> (plant(monkeypatch), the run that must catch it, a command or (),
# [text of the detail]), or a list of such faults
FAULTS = {
    # ------------------------------------------------------------ arith
    "primitive-root": (
        after(arith, "prime_factors", lambda fs, n: [1]),
        lambda: arith.least_primitive_root(13), A1_5),
    # ---------------------------------------------------------- rootsys
    "form-symmetric": (
        cartan("B", ([[2, -2], [-1, 2]], [4, 2])),
        lambda: RootSystem("B2"), ("roots", "B2")),
    "root-coroot-closure": [
        # a[0][1] = 0 but a[1][0] != 0, with the form kept symmetric by a
        # zero norm: s_1 fixes alpha_0 but moves its coroot
        (cartan("B", ([[2, 0], [-1, 2]], [2, 0])),
         lambda: RootSystem("B2"), ("roots", "B2")),
        # <alpha_0, alpha_0-vee> = 1: s_0 does not send alpha_0 to -alpha_0
        (cartan("A", ([[1]], [2])), lambda: RootSystem("A1"),
         ("roots", "A1")),
        # a[0][1] = 1 > 0: s_1 sends alpha_0 below zero, to alpha_0 - alpha_1
        (cartan("B", ([[2, 1], [1, 2]], [2, 2])),
         lambda: RootSystem("B2"), ("roots", "B2")),
    ],
    "root-count-is-rank-times-coxeter": (
        _closure_loses_a_root, lambda: RootSystem("G2"), ("roots", "G2")),
    # --------------------------------------------------------- affine_k
    "alcove-fold-length": [
        # s_0 moves nothing, so the fold ends only at its bound, N + 1 = 5
        (before(affine_k, "fold_dominant", lambda matrix, p, limit: (
            [*matrix[:-1], [0] * len(p)], p, limit)),
         lambda: affine_k.phi_k(root_system("G2")), ("k-type", "G2"),
         "took 5 steps"),
        # it starts at 0, in the alcove: it ends, after no step
        (before(affine_k, "fold_dominant", lambda matrix, p, limit: (
            matrix, [0] * (len(p) - 1) + [4], limit)),
         lambda: affine_k.phi_k(root_system("G2")), ("k-type", "G2"),
         "took 0 steps"),
    ],
    "walk-matches-parity": (
        after(affine_k, "_simple_system", lambda simple, pos: simple[1:]),
        lambda: affine_k.phi_k(root_system("E8")), ("k-type", "E8")),
    "c-alpha-prime-is-2": (
        # node 0 of D4 has theta-vee coefficient 1; the center node is 2
        after(affine_k, "phi_k", lambda sub, rs: sub._replace(deleted_node=0)),
        lambda: affine_k.removed_node_coefficient(root_system("D4")),
        ("k-type", "D4")),
    "kappa-kernel-index-2": (
        after(affine_k, "gf2_nullspace", lambda null, rows, r: null * 2),
        lambda: affine_k.KappaCharacter(root_system("G2")), MONODROMY_G2),
    # --------------------------------------------------------- twogroup
    "even-norm": (
        cartan("A", ([[2]], [3])),
        lambda: TildeGroup(RootSystem("A1")), ATILDE_A1),
    "square-law": (
        after(TildeGroup, "_beta", lambda beta, tg, a, b: 1 - beta),
        lambda: TildeGroup(root_system("A1")), ATILDE_A1),
    "commutator-law": (
        _flipped_transposed_cocycle_bit,
        lambda: TildeGroup(root_system("A1")), ATILDE_A1),
    "radical-size": (
        after(twogroup, "smith_normal_form", lambda fs, mat: [*fs, 2]),
        lambda: build_tilde_group(root_system("A1")).radical_size_crosscheck(),
        ATILDE_A1),
    "lagrangian-cosets": [
        # no pivot column: every class reads as its own coset
        (replace(twogroup, "gf2_echelon", lambda rows: {}),
         lambda: twogroup.odd_irreps(build_tilde_group(root_system("A1"))),
         ATILDE_A1, "2 cosets of the Lagrangian, want 1"),
        # no two vectors pair to 0: the greedy lift stops short of m picks
        (replace(TildeGroup, "pairing", lambda tg, a, b: 1),
         lambda: twogroup.odd_irreps(build_tilde_group(root_system("D6"))),
         ("atilde", "D6"), "8 cosets of the Lagrangian, want 4"),
    ],
    "character-orthogonality": (
        after(twogroup, "_induced_character",
              lambda ch, *args: ([ch[0][0] + 1, *ch[0][1:]], ch[1])),
        lambda: twogroup.odd_irreps(build_tilde_group(root_system("A1"))),
        ATILDE_A1),
    # -------------------------------------------------------- chevalley
    "extraspecial-pair-found": (
        replace(ChevalleyAlgebra, "root_sum", lambda alg, p, q: None),
        lambda: build_algebra("G2"), MONODROMY_G2),
    "structure-constant-integral": [
        # each extraspecial pair's N is p + 2, not p + 1
        (after(ChevalleyAlgebra, "_string_p", lambda p, alg, a, b: p + 1),
         lambda: chevalley.regular_nilpotent_centralizer(build_algebra("G2")),
         MONODROMY_G2),
        # a zero numerator: an exact quotient, but N = 0 at a root sum
        (before(ChevalleyAlgebra, "_integral",
                lambda alg, num, den, a, b: (alg, 0, den, a, b)),
         lambda: chevalley.regular_nilpotent_centralizer(build_algebra("G2")),
         MONODROMY_G2, " = 0/"),
    ],
    "jacobi-identity-sampled": (
        _single_bracket_off,
        lambda: chevalley.jacobi_probe(build_algebra("D4"), 20, 0),
        MONODROMY_D4),
    "kappa-fixed-is-half-the-roots": (
        replace(affine_k.KappaCharacter, "__call__", lambda kappa, v: 1),
        lambda: chevalley.kappa_fixed_dim(
            build_algebra("G2"), affine_k.KappaCharacter(root_system("G2"))),
        MONODROMY_G2),
    "regular-centralizer-is-rank": (
        after(ChevalleyAlgebra, "regular_nilpotent",
              lambda x, alg: dict(list(x.items())[1:])),
        lambda: chevalley.regular_nilpotent_centralizer(build_algebra("G2")),
        MONODROMY_G2),
    "v-class-centralizer": [
        # nodes 1 to 4, which are not orthogonal, as the witness
        (replace(chevalley, "E_QUADRUPLE", {7: (1, 2, 3, 4)}),
         lambda: chevalley.v_class_centralizer(build_algebra("E7")),
         ("monodromy", "E7")),
        # the grading count alone moves: one label 0 read as 2
        (after(ChevalleyAlgebra, "grading", _first_zero_read_as_two),
         lambda: chevalley.v_class_centralizer(build_algebra("D4")),
         MONODROMY_D4, "graded 11"),
    ],
    "v-class-weighted-diagram": (
        # one label flipped after the fold; the -1 test folds unpatched
        after(chevalley, "fold_dominant", lambda folded, cartan, p, limit: (
            [1 - folded[0][0], *folded[0][1:]], folded[1])),
        lambda: chevalley.v_class_centralizer(build_algebra("D4")),
        MONODROMY_D4),
    "heisenberg-count-by-comarks": (
        after(chevalley, "heisenberg_dim", lambda heis, rs: heis + 1),
        lambda: chevalley.quasiminuscule_dims("E7"),
        ("monodromy", "E7")),
    # -------------------------------------------------------- rigidity
    "class-equation": [
        (after(rigidity.FiniteGroup, "_conjugacy_classes", _drop_last_class),
         lambda: rigidity.psl2_group(5), PSL2_5, "sizes sum to"),
        (after(rigidity.FiniteGroup, "_conjugacy_classes", _grown_first_class),
         lambda: rigidity.psl2_group(5), PSL2_5, "times centralizer order"),
        (after(rigidity.FiniteGroup, "_conjugacy_classes",
               _conjugators_times_a_generator),
         lambda: rigidity.psl2_group(5), PSL2_5, "times centralizer order"),
    ],
    "group-order": (
        # diag(1, 1) in place of diag(nu, 1): the closure is PSL2
        replace(rigidity, "least_primitive_root", lambda p: 1),
        lambda: rigidity.pgl2_group(5), PGL2_5),
    "unipotent-class-size": (
        after(rigidity, "pgl2_group", _reversed_generators),
        lambda: rigidity.predicted_triple(5), PGL2_5),
    # ----------------------------------------------------------- a1lab
    "character-order-4": (
        # 4 = 2^2 has order 6 mod 13, so it misses half the indices
        replace(a1lab, "least_primitive_root", lambda p: 4),
        lambda: a1lab.FiniteFieldCtx(13), A1_13),
    "f-nonzero-off-ramification": (
        replace(a1lab, "_f_value", lambda ctx, lam, x: 0), scan(5), A1_5),
    "weil-bound": (
        # t1, and so t3 = conj(t1), moved by 10 > 2 sqrt(5)
        power_sum(lambda j: (10 * (j == 1), 0)), scan(5), A1_5),
    "legendre-identity": (_square_roots_off, scan(5), A1_5),
    "point-count-by-fourth-roots": (
        # n = q + 1 + 2 Re t1 + t2 moves; the Weil bound and sym2, which
        # read |t1| and t1^2, do not
        after(a1lab, "trace_sums",
              lambda ts, ctx, values: ((-ts[0][0], -ts[0][1]), *ts[1:])),
        scan(13), A1_13),
    "genus-1-hasse-bound": (
        # f takes only the values 1 and nu^2, whose chi^2 is 1: t2 = q - 3
        # with t1 = t3 inside the Weil bound and the Legendre count intact
        replace(a1lab, "_f_value", lambda ctx, lam, x: pow(
            ctx.generator, 2 * (x % 2), ctx.p)),
        scan(13), A1_13),
    "norm-character-order-4": (
        _shifted_index, lambda: a1lab.extension_sums(a1lab.FiniteFieldCtx(13)),
        A1_13),
    "even-rational-integer": (
        extension_shift(lambda q: 1), scan(5), A1_5),
    "sym2-divisible-by-q": (
        extension_shift(lambda q: 2), scan(5), A1_5),
    "sym2-range": (
        extension_shift(lambda q: 8 * q), scan(5), A1_5),
    "sym2-symmetric-range": (
        # s moves by 2q to 3q, the symmetric trace by -2q below -q
        extension_shift(lambda q: 4 * q), scan(5), A1_5),
    # ---------------------------------------------------------- verify
    "k-type-row": (
        after(affine_k, "k_type_row", lambda row, label: dict(row, pi1="Z/4")),
        verify.criterion_k_type_table, ()),
    "quotient-is-z/2": (
        after(affine_k, "smith_normal_form", lambda fs, mat: [*fs[:-1], 4]),
        verify.criterion_lattice_quotients, ()),
    "quotient-is-z": (
        # D4, whose quotient is Z/2, listed as a free type
        replace(verify, "FREE_LABELS", (*verify.FREE_LABELS, "D4")),
        verify.criterion_lattice_quotients, ()),
    "radical-is-z(g)[2]": (
        after(twogroup, "atilde_result",
              lambda res, label: dict(res, radical_size=2 * res[
                  "radical_size"])),
        verify.criterion_tilde_laws, ()),
    "center-and-irrep-count": (
        after(twogroup, "atilde_result",
              lambda res, label: dict(res, center="mu8")),
        verify.criterion_center_table, ()),
    "dim-is-rank-plus-roots": (
        after(chevalley, "monodromy_result",
              lambda res, *args: dict(res, dim=res["dim"] + 1)),
        verify.criterion_chevalley, ()),
    "dim-as-in-the-paper": (
        replace(verify, "PAPER_DIMS", dict(verify.PAPER_DIMS, E8=249)),
        verify.criterion_chevalley, ()),
    "local-dims-as-predicted": (
        after(chevalley, "monodromy_result",
              lambda res, *args: dict(res, kappa_fixed_dim=res[
                  "kappa_fixed_dim"] + 1)),
        verify.criterion_chevalley, ()),
    "quasiminuscule-dims": (
        after(RootSystem, "dim_y", lambda y, rs: y + 1),
        verify.criterion_quasiminuscule, ()),
    "one-record-per-fiber": (
        after(a1lab, "a1_result",
              lambda res, primes: dict(res, fibers=res["fibers"] + 1)),
        verify.criterion_a1_lab, ()),
    "hurwitz-strictly-rigid": (
        after(rigidity, "rigid_result", lambda res, *args: dict(
            res, triple=dict(res["triple"], solution_count=169))),
        verify.criterion_rigidity, ()),
    "representative-invariance": (
        after(rigidity, "solutions_at", _extra_solution_off_the_rep),
        verify.criterion_rigidity, ()),
    "pgl2-fixture-inside-psl2": (
        after(rigidity, "predicted_triple",
              lambda rep, ell: dict(rep, generates=True)),
        verify.criterion_rigidity, ()),
    "recomputed-details-equal": (
        # a probe whose details change from one run to the next
        replace(verify, "criterion_quasiminuscule",
                lambda seed=0, n=itertools.count(): {"run": next(n)}),
        verify.criterion_determinism, ()),
}


def faults(name) -> list:
    """The faults of `name`, each (plant, run, argv, detail)."""
    entry = FAULTS[name]
    return [(*f, "")[:4] for f in (entry if isinstance(entry, list)
                                    else [entry])]


@pytest.mark.parametrize("name, k", [
    pytest.param(name, k, id=f"{name}-{k + 1}" if k else name)
    for name in sorted(FAULTS) for k in range(len(faults(name)))])
def test_fault_trips_its_check_first(capsys, monkeypatch, name, k):
    plant, run, argv, detail = faults(name)[k]
    obs.reset()   # no cached result from before the fault
    plant(monkeypatch)
    try:
        with pytest.raises(CheckFailed) as exc:
            run()
        assert str(exc.value).startswith(f"{name}: "), exc.value
        assert detail in str(exc.value), exc.value
        if argv:
            capsys.readouterr()
            assert main(list(argv)) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert len(err.splitlines()) == 1, err
            assert err.startswith(f"check failed: {name}: "), err
    finally:
        obs.reset()   # no cached result built under the fault


def check_sites(paths) -> Counter:
    """The number of `check(...)` and `obs.check(...)` calls in `paths`
    per name, each name a string constant."""
    sites = Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and "check" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                sites[node.args[0].value] += 1
    return sites


def test_check_scan_sees_each_name(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from excmono import obs\nfrom excmono.obs import check\n"
                   "def f(x):\n    check('weil-bound', x, 'detail')\n"
                   "    obs.check('unlisted-name', x, 'detail')\n"
                   "    check('unlisted-name', not x, 'detail')\n"
                   "    obs.verdict('a-verdict', x)\n")
    assert check_sites([mod]) == {"weil-bound": 1, "unlisted-name": 2}
    assert set(check_sites([mod])) - set(FAULTS) == {"unlisted-name"}


def test_every_check_has_a_fault():
    sites = check_sites(sorted(SRC.glob("*.py")))
    assert set(FAULTS) == set(sites)
    assert {name: n for name, n in sites.items()
            if len(faults(name)) < n} == {}


# run counts of checks on fixed data, each once per table or system
@pytest.mark.parametrize("argv, name, runs", [
    (["a1", "--primes", "5,13"], "character-order-4", 2),
    (["a1", "--primes", "5,13"], "even-rational-integer", 28),
    (["rigid", "--group", "psl2", "--ell", "7"], "class-equation", 7),
    (["verify-all"], "c-alpha-prime-is-2", 24),
    (["atilde", "D6"], "even-norm", 1),
    (["verify-all"], "even-norm", 7),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_check_runs_once_per_fixed_datum(capsys, argv, name, runs):
    assert main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"]: c["runs"] for c in checks}[name] == runs


@pytest.mark.parametrize("label", ["E8", "G2"])
def test_highest_root_is_the_last_root_per_command(capsys, label):
    # E8 is its own dual; G2's dual is built, but theta is read on G2 only
    assert main(["monodromy", label]) == 0
    rs = root_system(label)
    assert rs.highest_root()[0] == rs.roots[-1]
