"""Exact linear algebra over Z and F2.

Everything here is fraction-free: ranks and Smith forms are computed with
integer cross-multiplication (rows re-scaled by their gcd to keep entries
small), never with floating point.  The rank takes sparse rows,
{column: entry} dicts, such as the brackets the Chevalley layer returns.
F2 work uses int bitmasks, one mask per row.
"""

from __future__ import annotations

from math import gcd


def _gcd_reduce(row: dict) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in row:
            row[k] //= g


def integer_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination.

    Rows are sparse, {column: nonzero int}, and are not modified.  Each
    column keeps the ids of the rows that hold it, so a pivot step visits
    only those rows.  The pivot rule (shortest row, then smallest |entry|,
    then earliest row id; a reduced row keeps its id) is deterministic,
    so repeated runs take the same path.
    """
    work = dict(enumerate(row for row in rows if row))
    holders = {}
    for idx, row in work.items():
        for col in row:
            holders.setdefault(col, set()).add(idx)
    rank = 0
    for col in sorted(holders):
        ids = holders[col]
        if not ids:
            continue
        pidx = min(ids, key=lambda i: (len(work[i]), abs(work[i][col]), i))
        pivot = work.pop(pidx)
        for k in pivot:
            holders[k].discard(pidx)
        pv = pivot[col]
        rank += 1
        for idx in list(ids):
            row = work[idx]
            f = row[col]
            new = {}
            for k in row.keys() | pivot.keys():
                val = pv * row.get(k, 0) - f * pivot.get(k, 0)
                if val:
                    new[k] = val
            for k in row.keys() - new.keys():
                holders[k].discard(idx)
            for k in new.keys() - row.keys():
                holders[k].add(idx)
            if new:
                _gcd_reduce(new)
                work[idx] = new
            else:
                del work[idx]
        if not work:
            break
    return rank


def _pivot_least(m, top: int) -> bool:
    """Swap a nonzero entry of least |value| in the block of rows and
    columns >= top to (top, top), the first such entry in row order;
    False if the block is zero."""
    best = None
    for i in range(top, len(m)):
        for j in range(top, len(m[i])):
            if m[i][j] and (best is None or abs(m[i][j]) < best[0]):
                best = (abs(m[i][j]), i, j)
    if best is None:
        return False
    _, bi, bj = best
    m[top], m[bi] = m[bi], m[top]
    for row in m:
        row[top], row[bj] = row[bj], row[top]
    return True


def smith_normal_form(mat) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Plain row/column reduction; fine for the small (rank <= 8) lattice
    inclusions and Cartan matrices this package feeds it.
    """
    m = [[int(v) for v in row] for row in mat]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    invariants = []
    top = 0
    while top < nr and top < nc:
        if not _pivot_least(m, top):
            break
        while True:
            # clear column, then row; restart if a division leaves residue
            p = m[top][top]
            done = True
            for i in range(nr):
                if i != top and m[i][top]:
                    q = m[i][top] // p
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                    if m[i][top]:
                        done = False
            for j in range(nc):
                if j != top and m[top][j]:
                    q = m[top][j] // p
                    for row in m:
                        row[j] -= q * row[top]
                    if m[top][j]:
                        done = False
            if done:
                break
            # residues are smaller than |p|, so this loop terminates
            _pivot_least(m, top)
        invariants.append(abs(m[top][top]))
        top += 1
    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(len(invariants) - 1):
            a, b = invariants[i], invariants[i + 1]
            if b % a:
                g = gcd(a, b)
                invariants[i], invariants[i + 1] = g, a * b // g
                changed = True
    return invariants


# ---------------------------------------------------------------- F2 ----

def gf2_echelon(rows) -> dict[int, int]:
    """Reduced row echelon form of bitmask rows over F2, as {pivot: row}.

    A row's pivot is its top bit; every pivot column is set in its own
    row only, so the result depends on the row space alone.
    """
    pivots = {}
    for r in rows:
        while r:
            c = r.bit_length() - 1
            if c in pivots:
                r ^= pivots[c]
            else:
                pivots[c] = r
                break
    for c in sorted(pivots):
        for c2 in pivots:
            if c2 != c and (pivots[c2] >> c) & 1:
                pivots[c2] ^= pivots[c]
    return pivots


def gf2_nullspace(rows, ncols: int) -> list[int]:
    """Basis (as bitmasks) of {x : M x = 0 over F2}; rows are bitmasks."""
    pivots = gf2_echelon(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        x = 1 << fc
        for c, row in pivots.items():
            if (row >> fc) & 1:
                x |= 1 << c
        basis.append(x)
    return basis
