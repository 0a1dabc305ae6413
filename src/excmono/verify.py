"""The full check suite behind `excmono verify-all`.

Each criterion checks its claim through `obs.check`, which raises
CheckFailed on the first identity that fails, and returns its details, a
JSON-ready dict with deterministic key order.  Criteria 1, 3-5, 7 and 8
check the subcommands' own results, calling each builder through its
layer module as the CLI does.  Timing never enters the details, so
rendered manifests are byte-stable.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter
from typing import NamedTuple

from . import a1lab, affine_k, chevalley, rigidity, twogroup
from .affine_k import (K_TYPE_TABLE, k_fundamental_quotient,
                       removed_node_coefficient)
from .chevalley import QM_EXPECT, quasiminuscule_dims
from .obs import check, clear_caches
from .rootsys import root_system
from .twogroup import build_tilde_group

TORSION_LABELS = ("B3", "B4", "B5", "B6", "B7", "D4", "D6", "D8",
                  "E7", "E8", "F4", "G2")
FREE_LABELS = ("A1", "B2", "C2", "C3", "C4", "C5")

# (Z(G), |Z(G)[2]|) for each type `rootsys.require_covered` admits up to
# rank 8, in the order criterion 3 prints: the odd irreps number as many
# as the radical of A-tilde, which is Z(G)[2]
CENTER_EXPECT = {
    "A1": ("mu4", 2), "D4": ("mu2^3", 4), "D6": ("mu2 x mu4", 4),
    "D8": ("mu2^3", 4), "E7": ("mu4", 2), "E8": ("mu2", 1),
    "G2": ("mu2", 1),
}
COVERED_LABELS = tuple(CENTER_EXPECT)

PAPER_DIMS = {"A1": 3, "G2": 14, "E7": 133, "E8": 248}

A1_PRIMES = (5, 13, 17, 29)
RIGID_ELLS = (3, 5, 7, 11, 13)


def criterion_k_type_table(seed=0):
    labels = sorted(K_TYPE_TABLE)
    rows = [affine_k.k_type_row(label) for label in labels]
    for label, row in zip(labels, rows):
        free = label in FREE_LABELS
        want = {"g": label, "k": K_TYPE_TABLE[label],
                "pi1": "Z" if free else "Z/2",
                "c_alpha_prime": None if free else 2}
        check("k-type-row", row == want, "{}", row)
    return {"rows": rows}


def criterion_lattice_quotients(seed=0):
    torsion, free, coeffs = {}, {}, {}
    for label in TORSION_LABELS:
        quot = k_fundamental_quotient(root_system(label))
        factors = [d for d in quot.invariant_factors if d > 1]
        torsion[label] = factors
        check("quotient-is-z/2", factors == [2] and quot.free_rank == 0,
              "{}: {}", label, quot)
        # removed_node_coefficient checks that the coefficient is 2
        coeffs[label] = removed_node_coefficient(root_system(label))
    for label in FREE_LABELS:
        quot = k_fundamental_quotient(root_system(label))
        free[label] = quot.free_rank
        check("quotient-is-z", quot.free_rank == 1 and all(
            d == 1 for d in quot.invariant_factors), "{}: {}", label, quot)
    return {"torsion": torsion, "free_rank": free, "c_alpha_prime": coeffs}


def criterion_tilde_laws(seed=0):
    radical = {}
    pairs_checked = 0
    for label in COVERED_LABELS:
        # construction checks even norms and both group laws, row by row
        pairs_checked += build_tilde_group(root_system(label)).pairs_checked
        size = twogroup.atilde_result(label)["radical_size"]
        radical[label] = size
        check("radical-is-z(g)[2]", size == CENTER_EXPECT[label][1],
              "{}: radical size {}", label, size)
    return {"labels": list(COVERED_LABELS), "pairs_checked": pairs_checked,
            "radical_sizes": radical}


def criterion_center_table(seed=0):
    # odd_irreps checks the irrep dimensions and character orthogonality
    centers, counts = {}, {}
    for label in COVERED_LABELS:
        res = twogroup.atilde_result(label)
        centers[label] = res["center"]
        counts[label] = res["odd_irreps"]["count"]
        check("center-and-irrep-count", (centers[label], counts[label])
              == CENTER_EXPECT[label], "{}: {}, {}", label, centers[label],
              counts[label])
    return {"centers": centers, "odd_irrep_counts": counts}


def criterion_chevalley(seed=0):
    # the Jacobi identity is sampled on E8 alone
    dims, kappa, regular, vclass, budgets = {}, {}, {}, {}, {}
    for label in COVERED_LABELS:
        res = chevalley.monodromy_result(label, seed,
                                         500 if label == "E8" else 0)
        rs = root_system(label)
        dims[label] = res["dim"]
        check("dim-is-rank-plus-roots", res["dim"] == rs.rank + rs.num_roots,
              "{}: dim {}", label, res["dim"])
        if label in PAPER_DIMS:
            check("dim-as-in-the-paper", res["dim"] == PAPER_DIMS[label],
                  "{}: dim {}", label, res["dim"])
        kappa[label] = res["kappa_fixed_dim"]
        regular[label] = res["regular_nilpotent_centralizer"]
        # kappa-fixed and v-class centralizers: half the roots; regular: rank
        half = rs.num_roots // 2
        local, want = [kappa[label], regular[label]], [half, rs.rank]
        if label != "A1":
            vclass[label] = res["v_class"]["centralizer_dim"]
            budgets[label] = [res["budget"][d] for d in ("d0", "d1", "dinf")]
            local += [vclass[label], *budgets[label]]
            want += [half, half, rs.rank, half]
        # the fields monodromy_result reports, as its own checks found them
        check("local-dims-as-predicted", local == want, "{}: {}, want {}",
              label, local, want)
        if label == "E8":
            probe = {"label": label, **res["jacobi_probe"]}
    return {"dims": dims, "kappa_fixed": kappa,
            "regular_centralizer": regular, "v_class": vclass,
            "budgets": budgets, "jacobi_probe": probe}


def criterion_quasiminuscule(seed=0):
    table = {}
    for label, want in sorted(QM_EXPECT.items()):
        qm, y, heis = quasiminuscule_dims(label)
        table[label] = [qm, y, heis]
        check("quasiminuscule-dims", (qm, y) == want, "{}: {}, {}",
              label, qm, y)
    return {"dims": table}


def criterion_a1_lab(seed=0):
    # every per-fiber identity is checked inside the scan itself
    res = a1lab.a1_result(list(A1_PRIMES))
    per_prime = Counter(rec["q"] for rec in res["records"])
    want = {q: q - 2 for q in A1_PRIMES}
    check("one-record-per-fiber", per_prime == want and res["fibers"]
          == sum(want.values()) and res["primes"] == list(A1_PRIMES),
          "records per prime {}, fibers {}", per_prime, res["fibers"])
    return {"primes": res["primes"], "fibers": res["fibers"],
            "per_prime": {str(q): n for q, n in sorted(per_prime.items())},
            "sym2_over_q_values": sorted({rec["sym2_over_q"]
                                          for rec in res["records"]})}


def criterion_rigidity(seed=0):
    g = rigidity.psl2_group(7)
    labels = ("2A", "3A", "7A")
    hurwitz = rigidity.rigid_result(g, labels)["triple"]
    check("hurwitz-strictly-rigid", hurwitz["strictly_rigid"]
          and hurwitz["solution_count"] == 168, "{}", hurwitz)
    c2, c3, c7 = map(g.class_by_label, labels)
    invariant = all(
        c2.size * len(rigidity.solutions_at(g, alt, c3, c7))
        == hurwitz["solution_count"] for alt in c2.members[1:4])
    check("representative-invariance", invariant,
          "the Hurwitz count changes with the representative of 2A")
    fixtures = {}
    for ell in RIGID_ELLS:
        rep = rigidity.predicted_triple(ell)
        fixtures[str(ell)] = {"solution_count": rep["solution_count"],
                              "normalized": rep["normalized_count"],
                              "strictly_rigid": rep["strictly_rigid"]}
        # g1 and ginf are unipotent, so they and g0 = (g1 ginf)^-1 lie in
        # PSL2(F_ell): no solution generates PGL2.  For g0 = diag(-1, 1) and
        # g1 = [[p, q], [r, s]] unipotent, g0 g1 is unipotent exactly when
        # s^2 = -p^2: no g1 unless ell = 1 mod 4, else 2(ell - 1) of them,
        # |C(g0)|, so the count is |G| and, Z trivial, the normalized one 1
        normalized = [1, 1] if ell % 4 == 1 else [0, 1]
        check("pgl2-fixture-inside-psl2",
              rep["normalized_count"] == normalized
              and rep["solution_count"] == normalized[0] * rep["group_order"]
              and not rep["generates"] and not rep["strictly_rigid"],
              "ell = {}: {}", ell, rep)
    return {"hurwitz": hurwitz, "representative_invariance": invariant,
            "pgl2_fixtures": fixtures}


def criterion_determinism(seed=0):
    probes = (criterion_k_type_table, criterion_lattice_quotients,
              criterion_quasiminuscule)

    def render():
        return [json.dumps(fn(seed), sort_keys=True) for fn in probes]

    first = render()
    clear_caches()   # the second pass recomputes instead of reading caches
    stable = first == render()
    check("recomputed-details-equal", stable,
          "details differ once the caches are cleared")
    return {"probes": [fn.__name__ for fn in probes], "stable": stable}


CRITERIA = (
    (1, "k-type-table", criterion_k_type_table),
    (2, "coroot-lattice-quotients", criterion_lattice_quotients),
    (3, "tilde-group-laws", criterion_tilde_laws),
    (4, "center-table-and-odd-irreps", criterion_center_table),
    (5, "chevalley-centralizers", criterion_chevalley),
    (6, "quasiminuscule-dims", criterion_quasiminuscule),
    (7, "a1-trace-lab", criterion_a1_lab),
    (8, "rigidity-harness", criterion_rigidity),
    (9, "determinism", criterion_determinism),
)


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    details: dict
    elapsed: float


def run_all(seed: int = 0):
    results = []
    for number, name, fn in CRITERIA:
        t0 = perf_counter()
        try:
            details = fn(seed=seed)
            passed = True
        except Exception as exc:  # a failing criterion must not stop the rest
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        results.append(CriterionResult(number, name, passed, details,
                                       perf_counter() - t0))
    return results
