"""Few cells, many intercalates: the extremal profile and its bounds.

I*(m) is the maximum number of intercalates a partial Latin square with
m filled cells can carry, and Phi(N) = min{m : I*(m) >= N} is the least
number of cells achieving N intercalates.  The exact oracle searches all
m-cell configurations up to relabeling: in a configuration where every
cell lies in an intercalate each used row, column and symbol occurs at
least twice, so floor(m/2) labels per class suffice, and configurations
with idle cells are covered by monotonicity I*(m) >= I*(m-1).  The
search enumerates cells in lexicographic order with gap-free labels
(over-generating isomorphic copies is harmless for a maximum) and prunes
with the fact that the i-th cell closes at most floor((i-1)/3) new
intercalates: two intercalates through one cell share no other cell.
Only configurations above I*(m-1) matter, and those use every label at
least twice, so the search also prunes on label use: it never leaves a
row that holds one cell (rows are never revisited), and it stops when
more columns, or more symbols, are used once than cells remain to be
placed, since each further cell adds a use to one column and one symbol.
These prunes cut only subtrees without an improving configuration, so
the search meets the same maxima in the same order and returns the same
witness as without them.  Before searching at all, the oracle asks
whether I*(m-1) + 1 intercalates fit in m cells: two distinct
intercalates share at most one cell, so k of them cover at least
4k - k(k-1)/2 cells.  Hence I*(m) <= 1 below 7 cells and I*(m) <= 2
below 9, and of m <= 8 only m = 4 and m = 7 run a search.

The lower bound floor((4N)^(1/3))^2 comes from triangle counting in the
tripartite graph of a configuration: an intercalate spans an octahedron,
four of whose eight faces are triangles beyond the cells themselves, so
a configuration Q has at least |Q| + 4 N(Q) triangles while a graph with
3|Q| edges cannot carry more than roughly (|Q|)^(3/2).  The upper bound
takes the XOR table of the smallest power of two whose cube exceeds
4N + N^(3/4) (its n^2(n-1)/4 intercalates usually suffice) and adds one
disjoint smaller XOR block when N lands between table values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    InputError,
    TripleSystem,
    group_table,
    to_triples,
)

ORACLE_CELL_CAP = 8
# phi_report takes about 2 s at this N on a 2-CPU Xeon; the XOR witness has
# four times as many cells at each step of the table
PHI_N_CAP = 10**7


# ---------------------------------------------------------------------------
# exact oracle


def _new_intercalates(cells: list[tuple[int, int, int]],
                      symbol_at: dict, row_of: dict,
                      r: int, c: int, s: int) -> int:
    made = 0
    for (r0, c0, s0) in cells:
        if r0 != r or c0 == c or s0 == s:
            continue
        r2 = row_of.get((c, s0))
        if r2 is not None and symbol_at.get((r2, c0)) == s:
            made += 1
    return made


@lru_cache(maxsize=None)
def max_intercalates_oracle(m: int) -> tuple[int, TripleSystem]:
    """Exact I*(m) with a maximizing configuration, m <= 8.

    The search runs only when I*(m - 1) + 1 intercalates can fit in m
    cells.  Two distinct intercalates share at most one cell: in
    {(r, c, s), (r, c', t), (r', c, t), (r', c', s)} any two cells agree
    in one coordinate and each other cell takes one of its remaining two
    coordinates from each of them, so the two fix the other two, a
    partial Latin square holding at most one cell with any two given
    coordinates.  By Bonferroni, k intercalates then cover at least
    4k - k(k-1)/2 cells.  When that exceeds m, no m-cell configuration
    carries k of them, nor more, since any k of a larger family would
    be one.  The search would then find nothing above I*(m - 1) and
    return its witness, which the cap returns at once.
    """
    if not 0 <= m <= ORACLE_CELL_CAP:
        raise InputError(f"oracle supports 0 <= m <= {ORACLE_CELL_CAP}")
    if m < 4:
        # an intercalate needs 4 cells; any clash-free placement works
        return 0, TripleSystem(max(m, 1), ((i, i, i) for i in range(m)))
    prev_best, prev_witness = max_intercalates_oracle(m - 1)
    k = prev_best + 1
    if 4 * k - k * (k - 1) // 2 > m:
        return prev_best, prev_witness
    cap = m // 2
    # potential[i] = most intercalates cells i+1..m-1 can still add
    tail = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        tail[i] = tail[i + 1] + i // 3

    best = prev_best
    best_cells: list[tuple[int, int, int]] | None = None
    cells: list[tuple[int, int, int]] = [(0, 0, 0)]
    symbol_at = {(0, 0): 0}
    column_of = {(0, 0): 0}
    row_of = {(0, 0): 0}
    # cells per row, column and symbol label
    row_use = [1] + [0] * (cap - 1)
    col_use = [1] + [0] * (cap - 1)
    sym_use = [1] + [0] * (cap - 1)

    def search(count: int, maxr: int, maxc: int, maxs: int) -> None:
        nonlocal best, best_cells
        i = len(cells)
        # an improving configuration uses every label at least twice; each
        # later cell gives a second use to one column and one symbol
        left = m - i
        if col_use.count(1) > left or sym_use.count(1) > left:
            return
        if i == m:
            if count > best:
                best = count
                best_cells = list(cells)
            return
        if count + tail[i] <= best:
            return
        last = cells[-1]
        # rows are never revisited: leave a row only once it has two cells
        top = last[0] if row_use[last[0]] == 1 else min(maxr + 1, cap - 1)
        for r in range(last[0], top + 1):
            for c in range(min(maxc + 1, cap - 1) + 1):
                if (r, c) <= last[:2]:
                    continue
                if (r, c) in symbol_at:
                    continue
                for s in range(min(maxs + 1, cap - 1) + 1):
                    if (r, s) in column_of or (c, s) in row_of:
                        continue
                    made = _new_intercalates(cells, symbol_at, row_of, r, c, s)
                    cells.append((r, c, s))
                    symbol_at[r, c] = s
                    column_of[r, s] = c
                    row_of[c, s] = r
                    row_use[r] += 1
                    col_use[c] += 1
                    sym_use[s] += 1
                    search(count + made, max(maxr, r), max(maxc, c), max(maxs, s))
                    row_use[r] -= 1
                    col_use[c] -= 1
                    sym_use[s] -= 1
                    del symbol_at[r, c], column_of[r, s], row_of[c, s]
                    cells.pop()

    search(0, 0, 0, 0)
    if best_cells is None:
        return prev_best, prev_witness
    n = max(max(t) for t in best_cells) + 1
    return best, TripleSystem(n, best_cells)


def phi_exact(N: int, max_cells: int = ORACLE_CELL_CAP) -> int | None:
    """min{m : I*(m) >= N} when it is within the oracle range."""
    if N < 1:
        raise InputError("need N >= 1")
    if not 0 <= max_cells <= ORACLE_CELL_CAP:
        raise InputError(
            f"exact cell budget must lie in 0..{ORACLE_CELL_CAP}")
    for m in range(1, max_cells + 1):
        if max_intercalates_oracle(m)[0] >= N:
            return m
    return None


# ---------------------------------------------------------------------------
# bounds


def _icbrt(x: int) -> int:
    r = round(x ** (1 / 3))
    while r**3 > x:
        r -= 1
    while (r + 1) ** 3 <= x:
        r += 1
    return r


def _check_target(N: int) -> None:
    if N < 1:
        raise InputError("need N >= 1")
    if N > PHI_N_CAP:
        raise InputError(f"phi bounds are desk-capped at N <= {PHI_N_CAP}")


def phi_lower_bound(N: int) -> int:
    """floor((4N)^(1/3))^2 cells are needed for N intercalates."""
    _check_target(N)
    return _icbrt(4 * N) ** 2


def _xor_block_intercalates(k: int) -> int:
    return (8**k - 4**k) // 4


def phi_upper_bound(N: int) -> tuple[int, TripleSystem]:
    """Cell count and witness from XOR tables, >= N intercalates.

    The witness is an XOR block of order 2^k, plus one of order 2^j on
    fresh rows, columns and symbols when xor(k) < N.  A row of one block
    is empty in the other's columns, so no intercalate meets both, and
    the witness carries xor(k) + xor(j) >= N intercalates, j being the
    least order with xor(j) >= N - xor(k) (``_xor_block_intercalates``).
    """
    _check_target(N)
    k = 1
    while 8**k <= 4 * N + N**0.75:
        k += 1
    triples = list(to_triples(group_table("elementary-abelian-2", k)).triples)
    cells = 4**k
    off = 1 << k
    deficit = N - _xor_block_intercalates(k)
    if deficit > 0:
        j = 1
        while _xor_block_intercalates(j) < deficit:
            j += 1
        block = to_triples(group_table("elementary-abelian-2", j)).triples
        triples += [(r + off, c + off, s + off) for r, c, s in block]
        cells += 4**j
        off += 1 << j
    return cells, TripleSystem(off, triples)


@dataclass
class PhiRecord:
    N: int
    lower_bound: int
    upper_bound: int
    exact: int | None
    witness: TripleSystem
    ratio_lower: float
    ratio_upper: float


def phi_report(N: int, max_cells: int = ORACLE_CELL_CAP) -> PhiRecord:
    """Bounds, the exact value when the oracle reaches it, and the
    ratios against the (4N)^(2/3) growth rate."""
    lower = phi_lower_bound(N)
    exact = phi_exact(N, max_cells)
    upper, witness = phi_upper_bound(N)
    if exact is not None:
        _, witness = max_intercalates_oracle(exact)
        # the oracle witness maximizes I*(exact) so it carries >= N
        upper = min(upper, exact)
    scale = (4 * N) ** (2 / 3)
    return PhiRecord(
        N=N,
        lower_bound=lower,
        upper_bound=upper,
        exact=exact,
        witness=witness,
        ratio_lower=lower / scale,
        ratio_upper=upper / scale,
    )
