"""Known-answer checks on excmono's stdout, independent of excmono's code.

Every number checked here comes from a closed formula, a table written
out below, or a brute-force recount done in this file; nothing is
imported from the program.  Checks read only the fields they need, and
never compare whole manifests against a stored copy, so a change to the
manifest layout that keeps the numbers passes.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

# component type of K and pi_1 for every row of the 18-row type table
K_TYPE_TABLE = {
    "A1": ("Gm", "Z"), "B2": ("A1xGm", "Z"), "B3": ("A1xA1xA1", "Z/2"),
    "B4": ("A1xA1xB2", "Z/2"), "B5": ("B2xA3", "Z/2"),
    "B6": ("A3xB3", "Z/2"), "B7": ("B3xD4", "Z/2"), "C2": ("A1xGm", "Z"),
    "C3": ("A2xGm", "Z"), "C4": ("A3xGm", "Z"), "C5": ("A4xGm", "Z"),
    "D4": ("A1xA1xA1xA1", "Z/2"), "D6": ("A3xA3", "Z/2"),
    "D8": ("D4xD4", "Z/2"), "E7": ("A7", "Z/2"), "E8": ("D8", "Z/2"),
    "F4": ("A1xC3", "Z/2"), "G2": ("A1xA1", "Z/2"),
}

TILDE_LABELS = ("A1", "D4", "D6", "D8", "E7", "E8", "G2")
CSV_COLUMNS = ["q", "lambda", "t1_re", "t1_im", "t2", "t3_re", "t3_im",
               "n_points", "sym2", "sym2_over_q"]
RECOUNTS_PER_PRIME = 3


def rank(label: str) -> int:
    return int(label[1:])


def num_roots(label: str) -> int:
    letter, n = label[0], rank(label)
    if letter == "A":
        return n * (n + 1)
    if letter in "BC":
        return 2 * n * n
    if letter == "D":
        return 2 * n * (n - 1)
    return {"E6": 72, "E7": 126, "E8": 240, "F4": 48, "G2": 12}[label]


def linear_group_order(kind: str, p: int) -> int:
    """|SL2|, |PSL2| or |PGL2| over F_p, p an odd prime."""
    full = p * (p * p - 1)
    return full // 2 if kind == "psl2" else full


# ------------------------------------------------------------- a1 records

def brute_point_count(q: int, lam: int) -> int:
    """4 + #{(x, y) : y^4 = f(x)} for f = (lam x - 1)/(lam x (x - 1)),
    over the x where f is defined and nonzero; the 4 ramified points
    each add one."""
    fourth = [0] * q
    for y in range(q):
        fourth[pow(y, 4, q)] += 1
    bad = {0, 1, pow(lam, q - 2, q)}
    total = 4
    for x in range(q):
        if x in bad:
            continue
        den = lam * x * (x - 1) % q
        v = (lam * x - 1) * pow(den, q - 2, q) % q
        total += fourth[v]
    return total


def record_problems(q, lam, t1, t2, t3, n, sym2, sym2_over_q) -> list[str]:
    """Exact identities every a1 record must satisfy (t1, t3 are (re, im))."""
    bad = []
    if (n - q - 1) ** 2 > 36 * q:
        bad.append("Weil bound for genus 3")
    for name, t in (("t1", t1), ("t3", t3)):
        if t[0] ** 2 + t[1] ** 2 > 4 * q:
            bad.append(f"|{name}|^2 > 4q")
    if t2 * t2 > 4 * q:
        bad.append("t2^2 > 4q")
    if tuple(t3) != (t1[0], -t1[1]):
        bad.append("t3 != conj(t1)")
    if n != q + 1 + t1[0] + t2 + t3[0]:
        bad.append("n != q + 1 + t1 + t2 + t3")
    if sym2 % q or sym2_over_q != sym2 // q:
        bad.append("q does not divide sym2")
    return [f"q={q} lambda={lam}: {b}" for b in bad]


def a1_problems(primes, rows, rng: random.Random) -> list[str]:
    """rows: (q, lam, t1, t2, t3, n, sym2, sym2_over_q) tuples."""
    bad = []
    by_q = {}
    for row in rows:
        by_q.setdefault(row[0], {})[row[1]] = row
        bad += record_problems(*row)
    for q in sorted(set(primes)):
        got = by_q.get(q, {})
        if sorted(got) != list(range(2, q)):
            bad.append(f"q={q}: {len(got)} records, want q-2 = {q - 2}")
            continue
        for lam in rng.sample(range(2, q), min(RECOUNTS_PER_PRIME, q - 2)):
            want = brute_point_count(q, lam)
            if got[lam][5] != want:
                bad.append(f"q={q} lambda={lam}: n={got[lam][5]}, "
                           f"brute force {want}")
    if set(by_q) - set(primes):
        bad.append(f"records for unrequested primes {sorted(set(by_q) - set(primes))}")
    return bad


def _json_rows(records):
    return [(r["q"], r["lambda"], tuple(r["t1"]), r["t2"], tuple(r["t3"]),
             r["n_points"], r["sym2"], r["sym2_over_q"]) for r in records]


def _csv_rows(text: str):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_COLUMNS:
        raise ValueError(f"csv header {header}")
    rows = []
    for cells in reader:
        v = [int(c) for c in cells]
        rows.append((v[0], v[1], (v[2], v[3]), v[4], (v[5], v[6]),
                     v[7], v[8], v[9]))
    return rows


# ------------------------------------------------------------ per command

def _roots(result, label):
    n = num_roots(label)
    bad = []
    if result["num_roots"] != n or len(result["roots"]) != n:
        bad.append(f"{label}: {result['num_roots']} roots, want {n}")
    if result["rank"] != rank(label):
        bad.append(f"{label}: rank {result['rank']}")
    return bad


def _k_rows(rows):
    bad = []
    for row in rows:
        want = K_TYPE_TABLE.get(row["g"])
        if want is None or (row["k"], row["pi1"]) != want:
            bad.append(f"k-type row {row}")
    return bad


def _k_type(result, label):
    if label == "all":
        bad = _k_rows(result)
        if sorted(r["g"] for r in result) != sorted(K_TYPE_TABLE):
            bad.append("k-type all is not the 18-row table")
        return bad
    return _k_rows([result]) + ([] if result["g"] == label else ["wrong row"])


def _atilde(result, label):
    r = rank(label)
    dims = result["odd_irreps"]["dims"]
    bad = []
    if result["order"] != 2 ** (r + 1):
        bad.append(f"{label}: order {result['order']}, want 2^{r + 1}")
    if sum(d * d for d in dims) != 2 ** r or len(dims) != result["odd_irreps"]["count"]:
        bad.append(f"{label}: odd irreps {dims} do not square-sum to 2^{r}")
    return bad


def _monodromy(result, label):
    n, r = num_roots(label), rank(label)
    bad = []
    if result["dim"] != r + n:
        bad.append(f"{label}: dim {result['dim']}, want rank + #roots = {r + n}")
    if result["kappa_fixed_dim"] != n // 2:
        bad.append(f"{label}: kappa-fixed dim {result['kappa_fixed_dim']}")
    if result["regular_nilpotent_centralizer"] != r:
        bad.append(f"{label}: regular centralizer "
                   f"{result['regular_nilpotent_centralizer']}")
    return bad


def _triple(report, order):
    bad = []
    if report["group_order"] != order:
        bad.append(f"triple group order {report['group_order']}, want {order}")
    want = Fraction(report["solution_count"] * report["center_order"], order)
    if report["normalized_count"] != [want.numerator, want.denominator]:
        bad.append("normalized count is not solutions * |Z| / |G|")
    return bad


def _classes(result, order):
    sizes = [c["size"] for c in result["classes"]]
    bad = []
    if result["order"] != order:
        bad.append(f"group order {result['order']}, want {order}")
    if sum(sizes) != order or any(order % s for s in sizes):
        bad.append("class sizes do not satisfy the class equation")
    return bad


def _hurwitz(report):
    bad = _triple(report, 168)
    if report["solution_count"] != 168 or report["normalized_count"] != [1, 1] \
            or not report["strictly_rigid"]:
        bad.append("Hurwitz (2,3,7) triple in PSL2(F7) is not 168 solutions, "
                   "normalized 1, strictly rigid")
    return bad


def _verify_all(result):
    crit = {c["number"]: c for c in result["criteria"]}
    bad = [f"criterion {n} failed" for n, c in sorted(crit.items())
           if not c["passed"]]
    if not result["all_passed"] or sorted(crit) != list(range(1, 10)):
        bad.append("verify-all did not pass all nine criteria")
    bad += _k_rows(crit[1]["details"]["rows"])
    want_pairs = sum(4 ** rank(lab) for lab in TILDE_LABELS)
    if crit[3]["details"]["pairs_checked"] != want_pairs:
        bad.append(f"criterion 3 checked {crit[3]['details']['pairs_checked']} "
                   f"pairs, want {want_pairs}")
    for label, dim in crit[5]["details"]["dims"].items():
        if dim != rank(label) + num_roots(label):
            bad.append(f"criterion 5: dim {label} = {dim}")
    a1 = crit[7]["details"]
    if a1["fibers"] != sum(q - 2 for q in a1["primes"]):
        bad.append("criterion 7: fibers != sum of q - 2")
    return bad + _hurwitz(crit[8]["details"]["hurwitz"])


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


class Checker:
    """Judges one command's stdout; `file_order` is the expected order of
    the group in the run's `file:` input."""

    def __init__(self, seed: int, file_order: int | None = None):
        self.seed = seed
        self.file_order = file_order

    def problems(self, argv: list[str], stdout: str) -> list[str]:
        """Empty when every known answer holds; any parse error counts."""
        try:
            return self._problems(argv, stdout)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _problems(self, argv, stdout):
        cmd = argv[0]
        if cmd == "a1":
            primes = [int(x) for x in _option(argv, "--primes").split(",")]
            rng = random.Random(f"{self.seed}:{' '.join(argv)}")
            if _option(argv, "--format") == "csv":
                return a1_problems(primes, _csv_rows(stdout), rng)
            result = json.loads(stdout)["result"]
            bad = a1_problems(primes, _json_rows(result["records"]), rng)
            if result["fibers"] != sum(q - 2 for q in primes):
                bad.append("a1 fibers != sum of q - 2")
            return bad
        result = json.loads(stdout)["result"]
        if cmd == "roots":
            return _roots(result, argv[1])
        if cmd == "k-type":
            return _k_type(result, argv[1])
        if cmd == "atilde":
            return _atilde(result, argv[1])
        if cmd == "monodromy":
            return _monodromy(result, argv[1])
        if cmd == "verify-all":
            return _verify_all(result)
        if cmd == "rigid":
            group, ell = _option(argv, "--group"), int(_option(argv, "--ell", 5))
            if group == "pgl2":
                bad = _triple(result, linear_group_order("pgl2", ell))
                if result["class_sizes"][1] != ell * ell - 1:
                    bad.append("unipotent class size != ell^2 - 1")
                return bad
            if group == "psl2":
                bad = _classes(result, linear_group_order("psl2", ell))
                if _option(argv, "--classes") == "2A,3A,7A":
                    bad += _hurwitz(result["triple"])
                return bad
            return _classes(result, self.file_order)
        return [f"no known answers for command {cmd!r}"]
