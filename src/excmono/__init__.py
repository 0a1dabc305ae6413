"""Exact-arithmetic checks for the finite computations behind
exceptional-group rigid local systems: root-system combinatorics,
symmetric-subgroup tables, Heisenberg two-groups, Chevalley-basis
centralizer dimensions, quartic trace sums over small prime fields, and
brute-force rigidity of class triples."""

__version__ = "0.1.0"

from .affine_k import k_fundamental_quotient, k_type_row, kappa_character, phi_k
from .a1lab import FiniteFieldCtx, compute_record, scan
from .chevalley import (
    build_algebra,
    quasiminuscule_dims,
    rigidity_budget,
    v_class_centralizer,
)
from .rigidity import predicted_triple, triple_count
from .rootsys import RootSystem, root_system
from .twogroup import build_tilde_group, odd_irreps
from .verify import run_all

__all__ = [
    "FiniteFieldCtx",
    "RootSystem",
    "__version__",
    "build_algebra",
    "build_tilde_group",
    "compute_record",
    "k_fundamental_quotient",
    "k_type_row",
    "kappa_character",
    "odd_irreps",
    "predicted_triple",
    "phi_k",
    "quasiminuscule_dims",
    "rigidity_budget",
    "root_system",
    "run_all",
    "scan",
    "triple_count",
    "v_class_centralizer",
]
