"""Exact-arithmetic checks for the finite computations behind
exceptional-group rigid local systems: root-system combinatorics,
symmetric-subgroup tables, Heisenberg two-groups, Chevalley-basis
centralizer dimensions, quartic trace sums over small prime fields, and
brute-force rigidity of class triples."""

__version__ = "0.1.0"
