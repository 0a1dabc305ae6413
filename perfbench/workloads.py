"""Workloads: from a seed, the excmono commands each pass runs.

Every pass of a workload does the same amount of work whatever the seed:
the seed picks labels only among ones of about the same cost, pairs the
a1 primes so that every pass scans each prime once, and orders the
commands.  Runs with different seeds are therefore comparable, which the
benchmark's bounds rely on.  Parameters that cost much more than their
pool (atilde D8/E7/E8, monodromy E7/E8, a1 q >= 73, rigid ell >= 11) are
left to `verify_all`, which builds all of them.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from checks import linear_group_order

WORKLOADS = ("verify_all", "a1_scan", "cli_readme")

# a1_scan: each pass pairs every low prime with a high one
A1_LOW, A1_HIGH = (37, 41), (53, 61)

# cli_readme pools; each pool's commands cost within about 0.1 s
ROOT_LABELS = ("A1", "B2", "B3", "C3", "C4", "D4", "D5", "D6", "E7", "E8",
               "F4", "G2")
K_LABELS = ("A1", "B2", "B3", "B4", "B5", "B6", "B7", "C2", "C3", "C4", "C5",
            "D4", "D6", "D8", "E7", "E8", "F4", "G2")
ATILDE_LABELS = ("A1", "G2", "D4", "D6")
MONODROMY_LABELS = ("A1", "G2", "D4", "D6", "D8")
A1_SMALL = (5, 13, 17)
PGL2_ELLS = (3, 5, 7)
FILE_GROUPS = (("sl2", 5), ("pgl2", 5), ("psl2", 7))

FILE_GROUP_PATH = "group.json"


class Workload:
    """The seeded command stream of one workload.

    `next_pass()` returns the argv lists (without `python -m excmono`) of
    the next pass.  For `cli_readme` each parameter pool is walked in a
    seeded order, one step per pass, so a run covers its pools evenly.
    """

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name, self.seed = name, seed
        self.rng = random.Random(f"{name}:{seed}")
        self.file_group = None
        self.file_order = None
        if name == "cli_readme":
            self._pools = {key: self._cycle(pool) for key, pool in (
                ("roots", ROOT_LABELS), ("k", K_LABELS),
                ("atilde", ATILDE_LABELS), ("mono", MONODROMY_LABELS),
                ("a1", list(itertools.combinations(A1_SMALL, 2))),
                ("csv", list(itertools.combinations(A1_SMALL, 2))),
                ("ell", PGL2_ELLS))}
            kind, p = FILE_GROUPS[self.rng.randrange(len(FILE_GROUPS))]
            self.file_group = random_group_file(kind, p, self.rng)
            self.file_order = linear_group_order(kind, p)
            self.file_path = str(Path(workdir) / FILE_GROUP_PATH)
        elif name == "a1_scan":
            self._matchings = self._cycle(
                [list(zip(A1_LOW, high))
                 for high in itertools.permutations(A1_HIGH)])

    def _cycle(self, pool):
        order = list(pool)
        self.rng.shuffle(order)
        return itertools.cycle(order)

    def write_inputs(self) -> None:
        if self.file_group is not None:
            Path(self.file_path).write_text(json.dumps(self.file_group))

    def next_pass(self) -> list[list[str]]:
        if self.name == "verify_all":
            return [["verify-all", "--seed", str(self.seed)]]
        if self.name == "a1_scan":
            cmds = []
            for pair in next(self._matchings):
                pair = list(pair)
                self.rng.shuffle(pair)
                cmds.append(["a1", "--primes", ",".join(map(str, pair))])
            self.rng.shuffle(cmds)
            return cmds
        pools = self._pools
        cmds = [
            ["roots", next(pools["roots"])],
            ["k-type", next(pools["k"])],
            ["k-type", "all"],
            ["atilde", next(pools["atilde"])],
            ["monodromy", next(pools["mono"]),
             "--seed", str(self.rng.randrange(1000))],
            ["a1", "--primes", ",".join(map(str, next(pools["a1"])))],
            ["a1", "--primes", ",".join(map(str, next(pools["csv"]))),
             "--format", "csv"],
            ["rigid", "--group", "pgl2", "--ell", str(next(pools["ell"]))],
            ["rigid", "--group", "psl2", "--ell", "7",
             "--classes", "2A,3A,7A"],
            ["rigid", "--group", f"file:{self.file_path}"],
        ]
        self.rng.shuffle(cmds)
        return cmds


# ---------------------------------------------------------- file: groups

def _mat_mul(a, b, p):
    return ((a[0] * b[0] + a[1] * b[2]) % p, (a[0] * b[1] + a[1] * b[3]) % p,
            (a[2] * b[0] + a[3] * b[2]) % p, (a[2] * b[1] + a[3] * b[3]) % p)


def closure_order(gens, p: int, scalars) -> int:
    """Order of the group the 2x2 matrices `gens` generate over F_p, taken
    modulo the scalar matrices `scalars` (None: no quotient)."""
    def canon(m):
        if not scalars:
            return m
        return min(tuple(s * x % p for x in m) for s in scalars)

    ident = canon((1, 0, 0, 1))
    seen, frontier = {ident}, [ident]
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                h = canon(_mat_mul(g, s, p))
                if h not in seen:
                    seen.add(h)
                    new.append(h)
        frontier = new
    return len(seen)


def random_group_file(kind: str, p: int, rng: random.Random) -> dict:
    """A `file:` group input: two random matrices that generate SL2, PSL2
    or PGL2 over F_p, checked by closure."""
    scalars = {"sl2": None, "psl2": [1, p - 1], "pgl2": list(range(1, p))}[kind]
    want = linear_group_order(kind, p)
    while True:
        gens = []
        while len(gens) < 2:
            m = tuple(rng.randrange(p) for _ in range(4))
            det = (m[0] * m[3] - m[1] * m[2]) % p
            if det and (kind == "pgl2" or det == 1):
                gens.append(m)
        if closure_order(gens, p, scalars) == want:
            return {"p": p, "n": 2, "generators": [list(g) for g in gens],
                    "scalars": scalars}
