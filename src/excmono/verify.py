"""The full check suite behind `excmono verify-all`.

Each criterion function recomputes its claim from scratch (no shared
state beyond the `obs.memo` caches), checks it through `obs.check`,
which raises CheckFailed on the first identity that fails, and returns
its details, a JSON-ready dict with deterministic key order.  Timing
never enters the details, so rendered manifests are byte-stable.
"""

from __future__ import annotations

import json
from operator import mul
from time import perf_counter
from typing import NamedTuple

from .a1lab import scan
from .affine_k import (K_TYPE_TABLE, k_fundamental_quotient, k_type_row,
                       removed_node_coefficient)
from .chevalley import (QM_EXPECT, build_algebra, jacobi_probe, local_dims,
                        quasiminuscule_dims)
from .obs import check, clear_caches
from .rootsys import root_system
from .rigidity import predicted_triple, psl2_group, triple_count
from .twogroup import build_tilde_group, odd_irreps, odd_sets

TORSION_LABELS = ("B3", "B4", "B5", "B6", "B7", "D4", "D6", "D8",
                  "E7", "E8", "F4", "G2")
FREE_LABELS = ("A1", "B2", "C2", "C3", "C4", "C5")

# the types `rootsys.require_covered` admits up to rank 8, in the order
# criterion 3 prints
COVERED_LABELS = ("A1", "D4", "D6", "D8", "E7", "E8", "G2")
ZG2_SIZE = {"A1": 2, "D4": 4, "D6": 4, "D8": 4, "E7": 2, "E8": 1, "G2": 1}
CENTER_EXPECT = {
    "A1": ("mu4", 2), "G2": ("mu2", 1), "D4": ("mu2^3", 4),
    "D6": ("mu2 x mu4", 4), "D8": ("mu2^3", 4), "E7": ("mu4", 2),
    "E8": ("mu2", 1),
}

PAPER_DIMS = {"A1": 3, "G2": 14, "E7": 133, "E8": 248}

A1_PRIMES = (5, 13, 17, 29)
RIGID_ELLS = (3, 5, 7, 11, 13)


def criterion_k_type_table(seed=0):
    rows = {}
    for label in sorted(K_TYPE_TABLE):
        row = k_type_row(label)
        rows[label] = row
        want_pi1 = "Z" if label in FREE_LABELS else "Z/2"
        check("k-type-row", (row["k"], row["pi1"])
              == (K_TYPE_TABLE[label], want_pi1), "{}", row)
    return {"rows": [rows[k] for k in sorted(rows)]}


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


def _form_tables(rs, r):
    """Per-bitmask norms and pairing parities straight from the gram."""
    gram = rs.form_gram
    norms, parity = [], []
    for a in range(1 << r):
        idx = [i for i in range(r) if (a >> i) & 1]
        norms.append(sum(gram[i][j] for i in idx for j in idx))
        mask = 0
        for j in range(r):
            if sum(gram[i][j] for i in idx) % 2:
                mask |= 1 << j
        parity.append(mask)
    return norms, parity


def criterion_tilde_laws(seed=0):
    radical = {}
    pairs_checked = 0
    for label in COVERED_LABELS:
        rs = root_system(label)
        tg = build_tilde_group(rs)   # construction checks both group laws
        norms, parity = _form_tables(rs, tg.r)
        for a in range(1 << tg.r):
            check("even-norm-from-gram", norms[a] % 2 == 0,
                  "{}: class {:#b} has odd norm", label, a)
            check("q-from-gram", tg.q(a) == (-1 if (norms[a] // 2) % 2 else 1),
                  "{}: q({:#b}) against the norm {}", label, a, norms[a])
        # each pairing row against the parity row of the Gram table, as
        # 2^r-bit sets of b
        odd = odd_sets(tg.r)
        for a in range(1 << tg.r):
            check("pairing-from-gram", tg.pairing_row(a) == odd[parity[a]],
                  "{}: pairing row {:#b}", label, a)
            pairs_checked += 1 << tg.r
        size = tg.radical_size_crosscheck()
        radical[label] = size
        check("radical-is-z(g)[2]", size == ZG2_SIZE[label],
              "{}: radical size {}", label, size)
    return {"labels": list(COVERED_LABELS), "pairs_checked": pairs_checked,
            "radical_sizes": radical}


def criterion_center_table(seed=0):
    centers, counts = {}, {}
    for label in COVERED_LABELS:
        tg = build_tilde_group(root_system(label))
        _, name = tg.center_structure()
        irreps = odd_irreps(tg)   # checks that the dimensions square-sum
        centers[label] = name
        counts[label] = len(irreps)
        check("center-and-irrep-count", (name, len(irreps))
              == CENTER_EXPECT[label], "{}: {}, {}", label, name, len(irreps))
        tables = [ir.characters for ir in irreps]
        for i, (re_i, im_i) in enumerate(tables):
            for j in range(i, len(tables)):
                re_j, im_j = tables[j]
                # sum of chi_i(g) * conj(chi_j(g)) over the group
                real = sum(map(mul, re_i, re_j)) + sum(map(mul, im_i, im_j))
                imag = sum(map(mul, im_i, re_j)) - sum(map(mul, re_i, im_j))
                want = tg.order if i == j else 0
                check("character-orthogonality", (real, imag) == (want, 0),
                      "{}: <chi_{}, chi_{}> = {} + {}i", label, i, j, real, imag)
    return {"centers": centers, "odd_irrep_counts": counts}


def criterion_chevalley(seed=0):
    # local_dims and the functions under it check their own identities
    dims, kappa, regular, vclass, budgets = {}, {}, {}, {}, {}
    for label in COVERED_LABELS:
        alg = build_algebra(label)
        rs = root_system(label)
        dims[label] = alg.dim
        check("dim-is-rank-plus-roots", alg.dim == rs.rank + rs.num_roots,
              "{}: dim {}", label, alg.dim)
        if label in PAPER_DIMS:
            check("dim-as-in-the-paper", alg.dim == PAPER_DIMS[label],
                  "{}: dim {}", label, alg.dim)
        kappa[label], regular[label], budget = local_dims(label)
        if budget is not None:
            vclass[label] = budget.witness.centralizer_dim
            budgets[label] = [budget.d0, budget.d1, budget.dinf]
    probed = jacobi_probe(build_algebra("E8"), 500, seed)
    return {"dims": dims, "kappa_fixed": kappa,
                "regular_centralizer": regular, "v_class": vclass,
                "budgets": budgets,
                "jacobi_probe": {"label": "E8", "samples": probed,
                                 "seed": seed}}


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
    records = scan(list(A1_PRIMES))
    per_prime = {}
    for rec in records:
        per_prime[rec.q] = per_prime.get(rec.q, 0) + 1
    ratios = sorted({rec.sym2_trace // rec.q for rec in records})
    check("one-record-per-fiber", per_prime == {q: q - 2 for q in A1_PRIMES},
          "records per prime {}", per_prime)
    return {"primes": list(A1_PRIMES), "fibers": len(records),
                "per_prime": {str(q): n for q, n in sorted(per_prime.items())},
                "sym2_over_q_values": ratios}


def criterion_rigidity(seed=0):
    g = psl2_group(7)
    c2 = g.class_by_label("2A")
    c3 = g.class_by_label("3A")
    c7 = g.class_by_label("7A")
    hurwitz = triple_count(g, c2, c3, c7)
    check("hurwitz-strictly-rigid", hurwitz.strictly_rigid
          and hurwitz.solution_count == 168, "{}", hurwitz)
    invariant = all(
        triple_count(g, c2, c3, c7, g0=alt).solution_count
        == hurwitz.solution_count
        for alt in c2.members[1:4])
    check("representative-invariance", invariant,
          "the Hurwitz count changes with the representative of 2A")
    fixtures = {}
    for ell in RIGID_ELLS:
        rep = predicted_triple(ell)
        fixtures[str(ell)] = {
            "solution_count": rep.solution_count,
            "normalized": list(rep.normalized_count),
            "strictly_rigid": rep.strictly_rigid,
        }
    return {"hurwitz": hurwitz.json_dict(),
                "representative_invariance": invariant,
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
