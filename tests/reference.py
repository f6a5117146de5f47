"""Slow reference counters used only by the test suite.

Everything here is written for transparency, not speed: quadruples are
materialized explicitly and pairs are compared with dense boolean
matrices, so results are easy to audit and serve as oracles for the
fast per-class counters in the package, for the incremental
bookkeeping of the removal process, for the Jacobson-Matthews move
kernel and for the boosting layer's indexes, weight sums, gadgets and
condition checks.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from latinlab.core import (
    InputError,
    LatinRectangle,
    LatinSquare,
    TripartiteGraph,
    TripleSystem,
    ValidityReport,
    to_triples,
)
from latinlab.counting import DEGENERACY_LABELS
from latinlab.fracdec import (
    KIND_COLS,
    KIND_NAMES,
    SAMPLE_BUDGET,
    ConditionReport,
    TriangleSet,
    Violation,
    WeightFunction,
    _sample_sets,
    complete_host,
    part_imbalance,
)
from latinlab.rng import RandomStream


def _filled_cells(obj):
    if isinstance(obj, LatinRectangle):
        obj = to_triples(obj)
    return obj.n, list(obj.triples)


def brute_validate(ts: TripleSystem) -> ValidityReport:
    """First violation of a triple system, one triple at a time."""
    n = ts.n
    seen_rc, seen_rs, seen_cs = set(), set(), set()
    for r, c, s in ts.triples:
        if not (0 <= r < n and 0 <= c < n and 0 <= s < n):
            return ValidityReport(False, f"coordinate out of range in {(r, c, s)}")
        if (r, c) in seen_rc:
            return ValidityReport(False, f"cell ({r},{c}) holds two symbols")
        if (r, s) in seen_rs:
            return ValidityReport(False, f"row {r} repeats symbol {s}")
        if (c, s) in seen_cs:
            return ValidityReport(False, f"column {c} repeats symbol {s}")
        seen_rc.add((r, c))
        seen_rs.add((r, s))
        seen_cs.add((c, s))
    return ValidityReport(True)


def brute_intercalates(obj) -> int:
    """All 2-row, 2-column submatrices checked directly."""
    n, cells = _filled_cells(obj)
    grid = {(r, c): s for r, c, s in cells}
    rows = sorted({r for r, _, _ in cells})
    cols = sorted({c for _, c, _ in cells})
    count = 0
    for r1, r2 in itertools.combinations(rows, 2):
        for c1, c2 in itertools.combinations(cols, 2):
            a = grid.get((r1, c1))
            b = grid.get((r1, c2))
            c = grid.get((r2, c1))
            d = grid.get((r2, c2))
            if a is None or b is None or c is None or d is None:
                continue
            if a == d and b == c and a != b:
                count += 1
    return count


def brute_intercalate_cells(obj) -> list[frozenset]:
    """The four cells of every intercalate of a partial Latin square,
    found from each pair of cells in a row and the column and symbol
    lookups that complete it."""
    n, cells = _filled_cells(obj)
    grid = {(r, c): s for r, c, s in cells}
    row_of = {(c, s): r for r, c, s in cells}
    rows = {}
    for r, c, s in cells:
        rows.setdefault(r, []).append((c, s))
    found = []
    for r, row in rows.items():
        for (c1, a), (c2, b) in itertools.combinations(row, 2):
            r2 = row_of.get((c1, b))
            # the upper row finds each intercalate once
            if r2 is not None and r2 > r and grid.get((r2, c2)) == a:
                found.append(frozenset({(r, c1), (r, c2), (r2, c1), (r2, c2)}))
    return found


def _proper_quadruple_arrays(obj):
    """Arrays (r1, r2, c1, c2, a, b, c, d) over every ordered quadruple
    with r1 != r2, c1 != c2 and all four cells filled."""
    n, cells = _filled_cells(obj)
    grid = {(r, c): s for r, c, s in cells}
    recs = []
    rows = sorted({r for r, _, _ in cells})
    cols = sorted({c for _, c, _ in cells})
    for r1 in rows:
        for r2 in rows:
            if r1 == r2:
                continue
            for c1 in cols:
                for c2 in cols:
                    if c1 == c2:
                        continue
                    try:
                        pat = (
                            grid[r1, c1],
                            grid[r1, c2],
                            grid[r2, c1],
                            grid[r2, c2],
                        )
                    except KeyError:
                        continue
                    recs.append((r1, r2, c1, c2) + pat)
    return np.array(recs, dtype=np.int64).reshape(-1, 8), n


def brute_cuboctahedra(obj) -> dict[str, int]:
    """Pairwise comparison of all same-pattern quadruple pairs.

    Returns totals for the proper-by-proper part plus the nondegenerate
    count; degenerate shapes (collapsed rows or columns) are counted
    separately by brute_total below.
    """
    recs, n = _proper_quadruple_arrays(obj)
    if len(recs) == 0:
        return {"proper_pairs": 0, "nondegenerate": 0}
    pat = (
        ((recs[:, 4] * n + recs[:, 5]) * n + recs[:, 6]) * n + recs[:, 7]
    )
    eq = pat[:, None] == pat[None, :]
    proper_pairs = int(eq.sum())

    syms_distinct = (recs[:, 4] != recs[:, 7]) & (recs[:, 5] != recs[:, 6])
    r1, r2, c1, c2 = recs[:, 0], recs[:, 1], recs[:, 2], recs[:, 3]
    row_disjoint = (
        (r1[:, None] != r1[None, :])
        & (r1[:, None] != r2[None, :])
        & (r2[:, None] != r1[None, :])
        & (r2[:, None] != r2[None, :])
    )
    col_disjoint = (
        (c1[:, None] != c1[None, :])
        & (c1[:, None] != c2[None, :])
        & (c2[:, None] != c1[None, :])
        & (c2[:, None] != c2[None, :])
    )
    good = (
        eq
        & row_disjoint
        & col_disjoint
        & syms_distinct[:, None]
        & syms_distinct[None, :]
    )
    return {"proper_pairs": proper_pairs, "nondegenerate": int(good.sum())}


def brute_total(obj) -> int:
    """Same-pattern pairs over all quadruples, degenerate shapes included."""
    n, cells = _filled_cells(obj)
    grid = {(r, c): s for r, c, s in cells}
    rows = sorted({r for r, _, _ in cells})
    cols = sorted({c for _, c, _ in cells})
    pats: dict[tuple, int] = {}
    for r1 in rows:
        for r2 in rows:
            for c1 in cols:
                for c2 in cols:
                    try:
                        pat = (
                            grid[r1, c1],
                            grid[r1, c2],
                            grid[r2, c1],
                            grid[r2, c2],
                        )
                    except KeyError:
                        continue
                    # shape must match for two quadruples to be compared
                    key = (r1 == r2, c1 == c2) + pat
                    pats[key] = pats.get(key, 0) + 1
    return sum(v * v for v in pats.values())


def _pair_label(same_row: bool, same_col: bool, pat, q1, q2) -> str:
    """Degeneracy class of one ordered quadruple pair, by case analysis."""
    identical = q1 == q2
    if same_row and same_col:
        return "same-cell-twice" if identical else "two-cells-same-symbol"
    if same_col:
        return "same-2x1-twice" if identical else "two-2x1-same-symbols"
    if same_row:
        return "same-1x2-twice" if identical else "two-1x2-same-symbols"
    a, b, c, d = pat
    if a != d and b != c:
        if identical:
            return "same-2x2-distinct-symbols"
        rows_apart = not ({q1[0], q1[1]} & {q2[0], q2[1]})
        cols_apart = not ({q1[2], q1[3]} & {q2[2], q2[3]})
        if rows_apart and cols_apart:
            return "nondegenerate"
        return "row-or-column-sharing"
    if identical:
        return "same-2x2-repeated-symbol"
    cells1 = {(q1[0], q1[2]), (q1[0], q1[3]), (q1[1], q1[2]), (q1[1], q1[3])}
    cells2 = {(q2[0], q2[2]), (q2[0], q2[3]), (q2[1], q2[2]), (q2[1], q2[3])}
    if len(cells1 & cells2) == 1:
        return "opposite-face-overlap"
    return "repeated-symbol-other"


def brute_report(obj) -> dict[str, int]:
    """Per-class census: every same-shape same-pattern ordered pair of
    quadruples is labeled one at a time.  Keys are the degeneracy labels
    plus "nondegenerate" and "total"."""
    n, cells = _filled_cells(obj)
    grid = {(r, c): s for r, c, s in cells}
    rows = sorted({r for r, _, _ in cells})
    cols = sorted({c for _, c, _ in cells})
    groups: dict[tuple, list] = {}
    for r1 in rows:
        for r2 in rows:
            for c1 in cols:
                for c2 in cols:
                    try:
                        pat = (
                            grid[r1, c1],
                            grid[r1, c2],
                            grid[r2, c1],
                            grid[r2, c2],
                        )
                    except KeyError:
                        continue
                    key = (r1 == r2, c1 == c2) + pat
                    groups.setdefault(key, []).append((r1, r2, c1, c2))
    out = {label: 0 for label in DEGENERACY_LABELS}
    out["nondegenerate"] = 0
    for key, quads in groups.items():
        same_row, same_col, pat = key[0], key[1], key[2:]
        for q1 in quads:
            for q2 in quads:
                out[_pair_label(same_row, same_col, pat, q1, q2)] += 1
    out["total"] = sum(out.values())
    return out


def brute_subsquares(square: LatinSquare, k: int) -> int:
    """Check every k-subset of rows and columns for the subsquare property."""
    n = square.n
    g = square.grid
    count = 0
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.combinations(range(n), k):
            block = g[np.ix_(rows, cols)]
            syms = set(block.ravel().tolist())
            if len(syms) != k:
                continue
            ok = all(
                len(set(block[i].tolist())) == k for i in range(k)
            ) and all(len(set(block[:, j].tolist())) == k for j in range(k))
            if ok:
                count += 1
    return count


def brute_girth(obj, g_max: int = 8) -> int | None:
    """Girth by exhausting all small triple subsets."""
    if isinstance(obj, LatinRectangle):
        obj = to_triples(obj)
    n = obj.n
    tris = [frozenset((("r", r), ("c", c), ("s", s))) for r, c, s in obj.triples]
    best = None
    # j vertices spanning j-2 triples means some i-subset of triples,
    # i >= 2, covers exactly i+2 vertices
    for i in range(2, g_max - 1):
        if best is not None:
            break
        for sub in itertools.combinations(tris, i):
            verts = frozenset().union(*sub)
            if len(verts) == i + 2 and len(verts) <= g_max:
                v = len(verts)
                best = v if best is None else min(best, v)
    return best


def connected_triple_sets(obj, max_vertices: int) -> dict[frozenset, int]:
    """The non-empty triple sets that are connected through shared
    vertices and span at most ``max_vertices`` vertices, as sets of
    indices into ``obj.triples``, each with the number it spans.

    Every subset of up to ``max_vertices - 3`` triples is tried.  That is
    exact when the girth exceeds ``max_vertices``: then any i >= 2
    connected triples span at least i + 3 vertices.
    """
    tris = [frozenset((("r", r), ("c", c), ("s", s))) for r, c, s in obj.triples]
    out = {}
    for i in range(1, max_vertices - 2):
        for sub in itertools.combinations(range(len(tris)), i):
            span = frozenset().union(*(tris[t] for t in sub))
            if len(span) > max_vertices:
                continue
            reached, rest = set(tris[sub[0]]), list(sub[1:])
            grew = True
            while grew:
                grew = False
                for t in list(rest):
                    if reached & tris[t]:
                        reached |= tris[t]
                        rest.remove(t)
                        grew = True
            if not rest:
                out[frozenset(sub)] = len(span)
    return out


def _triple_safety(state):
    """Per (r, c, s) of a removal-process state, read off its grid alone:
    None if unavailable, else whether it is safe, i.e. the girth
    constraint is off or placing it closes no intercalate with three
    present triples."""
    n, cell = state.n, state.cell
    col_of = [{s: c for c, s in enumerate(cell[r]) if s >= 0} for r in range(n)]
    row_of = [{cell[r][c]: r for r in range(n) if cell[r][c] >= 0}
              for c in range(n)]
    safety = {}
    for r in range(n):
        for c in range(n):
            for s in range(n):
                if cell[r][c] >= 0 or s in col_of[r] or s in row_of[c]:
                    safety[r, c, s] = None
                elif state.girth:
                    safety[r, c, s] = not _completes_intercalate(
                        cell, col_of, row_of, r, c, s)
                else:
                    safety[r, c, s] = True
    return safety


def _completes_intercalate(cell, col_of, row_of, r, c, s) -> bool:
    """Some s2 sits at (r, c2) and (r2, c) with s already at (r2, c2)."""
    return any(s2 in row_of[c] and cell[row_of[c][s2]][c2] == s
               for s2, c2 in col_of[r].items())


def brute_counts(state) -> tuple[int, int]:
    """(available, dangerous-and-available) by direct scan."""
    safety = _triple_safety(state).values()
    return (sum(v is not None for v in safety),
            sum(v is False for v in safety))


def brute_safe_triples(state) -> list[tuple[int, int, int]]:
    """Every safe available triple, in (row, column, symbol) order."""
    return [t for t, safe in _triple_safety(state).items() if safe is True]


def brute_cell_weights(state) -> list[list[int]]:
    """Safe available symbols per cell, as the n x n table ``w``."""
    w = [[0] * state.n for _ in range(state.n)]
    for (r, c, _), safe in _triple_safety(state).items():
        w[r][c] += safe is True
    return w


def reference_move(cube, word: int) -> bool:
    """One Jacobson-Matthews move of ``cube`` (a
    ``sampling.IncidenceCube``) driven by one 62-bit word, decoded as
    ``sampling.jm_run`` does.  Returns True when the new state is
    proper."""
    S, R, C = cube.S, cube.R, cube.C
    n = cube.n
    if cube.improper is None:
        # the zero cell (r, c, s): s runs over the n - 1 symbols that
        # cell (r, c) does not hold
        rest, r = divmod(word, n)
        rest, c = divmod(rest, n)
        s = rest % (n - 1)
        s1 = S[r][c]
        if s >= s1:
            s += 1
        r1 = R[c][s]
        c1 = C[r][s]
        fs, fc, fr = s, c, r
    else:
        # each line through the -1 has two +1 slots; one bit picks the
        # slot that is flipped, for the symbol, column and row lines
        r, c, s, sym2, col2, row2 = cube.improper
        a = S[r][c]
        if word & 1:
            s1, fs = sym2, a
        else:
            s1, fs = a, sym2
        a = C[r][s]
        if word & 2:
            c1, fc = col2, a
        else:
            c1, fc = a, col2
        a = R[c][s]
        if word & 4:
            r1, fr = row2, a
        else:
            r1, fr = a, row2
    cube.moves += 1
    t = S[r1][c1]
    old_col = C[r1][s1]
    old_row = R[c1][s1]
    S[r][c] = fs
    C[r][s] = fc
    R[c][s] = fr
    S[r][c1] = s1
    C[r][s1] = c1
    R[c1][s1] = r
    S[r1][c] = s1
    C[r1][s1] = c
    R[c][s1] = r1
    S[r1][c1] = s
    C[r1][s] = c1
    R[c1][s] = r1
    if t == s1:
        cube.improper = None
        cube.proper_steps += 1
        return True
    cube.improper = (r1, c1, s1, t, old_col, old_row)
    return False


def reduced_squares(n: int) -> np.ndarray:
    """Every order-n square with first row and column 0..n-1, stacked."""
    grid = np.zeros((n, n), dtype=np.int64)
    grid[0] = grid[:, 0] = np.arange(n)
    full = (1 << n) - 1
    row_used = [full if r == 0 else 1 << r for r in range(n)]
    col_used = [full if c == 0 else 1 << c for c in range(n)]
    out = []

    def fill(pos: int) -> None:
        if pos == (n - 1) * (n - 1):
            out.append(grid.copy())
            return
        r, c = divmod(pos, n - 1)
        r, c = r + 1, c + 1
        free = ~(row_used[r] | col_used[c]) & full
        while free:
            bit = free & -free
            free ^= bit
            grid[r, c] = bit.bit_length() - 1
            row_used[r] |= bit
            col_used[c] |= bit
            fill(pos + 1)
            row_used[r] ^= bit
            col_used[c] ^= bit

    fill(0)
    return np.array(out).reshape(-1, n, n)


def all_squares(n: int) -> np.ndarray:
    """Every order-n square, stacked: each reduced square with its rows
    1..n-1 permuted and then its symbols relabelled.  Undoing the two
    steps (relabel so that row 0 reads 0..n-1, then sort rows 1..n-1 by
    their first entry) takes every square to exactly one reduced square,
    so these n! (n-1)! images of each are all distinct."""
    orders = np.array([(0,) + p for p in itertools.permutations(range(1, n))])
    labels = np.array(list(itertools.permutations(range(n))))
    return labels[:, reduced_squares(n)[:, orders]].reshape(-1, n, n)


def intercalate_law(grids: np.ndarray, weight: int = 1) -> dict[int, int]:
    """N -> number of squares with that many intercalates, over a stack
    of grids that each stand for ``weight`` squares."""
    n = grids.shape[1]
    counts = np.zeros(len(grids), dtype=np.int64)
    for r1, r2 in itertools.combinations(range(n), 2):
        for c1, c2 in itertools.combinations(range(n), 2):
            counts += ((grids[:, r1, c1] == grids[:, r2, c2])
                       & (grids[:, r1, c2] == grids[:, r2, c1]))
    values, freq = np.unique(counts, return_counts=True)
    return {int(v): int(f) * weight for v, f in zip(values, freq)}


@functools.cache
def exact_intercalate_law(n: int) -> dict[int, int]:
    """N -> number of order-n squares with N intercalates, n <= 6.

    Each reduced square stands for the n! (n-1)! squares that
    ``all_squares`` builds from it, and neither permuting rows nor
    relabelling symbols changes N.
    """
    return intercalate_law(reduced_squares(n),
                           math.factorial(n) * math.factorial(n - 1))


# ---------------------------------------------------------------------------
# fixtures: rectangles, graphs and triangle sets built only by the tests


def restrict_rows(square: LatinSquare, k: int) -> LatinRectangle:
    if not 1 <= k <= square.n:
        raise ValueError(f"need 1 <= k <= {square.n}, got {k}")
    return LatinRectangle(square.grid[:k])


def tripartite_of(ts) -> TripartiteGraph:
    """The graph G(Q): an edge per covered row/column, row/symbol,
    column/symbol pair.  Triples become triangles."""
    if isinstance(ts, LatinRectangle):
        ts = to_triples(ts)
    n = ts.n
    a12 = np.zeros((n, n), dtype=bool)
    a23 = np.zeros((n, n), dtype=bool)
    a31 = np.zeros((n, n), dtype=bool)
    for r, c, s in ts.triples:
        a12[r, c] = True   # row-column
        a23[c, s] = True   # column-symbol
        a31[s, r] = True   # symbol-row
    return TripartiteGraph.from_adjacency(a12, a23, a31)


def serialize_partial(ts: TripleSystem) -> str:
    """Grid form with '.' on empty cells; header is the order n."""
    grid = ts.cell_grid()
    lines = [str(ts.n)]
    for row in grid:
        lines.append(" ".join("." if x < 0 else str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def all_triangles(host: TripartiteGraph) -> TriangleSet:
    cube = (host.adj12[:, :, None]
            & host.adj23[None, :, :]
            & host.adj31.T[:, None, :])
    return TriangleSet(host, np.argwhere(cube))


def thinned_instance(n: int, q: float, rng: RandomStream) -> TriangleSet:
    """All triangles of K_{n,n,n}, kept independently with probability q."""
    keep = rng.generator.random(n**3) < q
    grid = keep.reshape(n, n, n)
    return TriangleSet(complete_host(n), np.argwhere(grid))


def graph_triangles(ts: TripleSystem) -> int:
    """Triangles of the tripartite graph of ts (cells plus spurious ones).

    Every configuration satisfies triangles >= |Q| + 4 N(Q): each
    intercalate's octahedron has four triangle faces besides its cells.
    """
    rc: dict[int, set[int]] = {}
    cs: dict[int, set[int]] = {}
    sr: dict[int, set[int]] = {}
    for r, c, s in ts.triples:
        rc.setdefault(r, set()).add(c)
        cs.setdefault(c, set()).add(s)
        sr.setdefault(s, set()).add(r)
    total = 0
    for r, cols in rc.items():
        for c in cols:
            for s in cs.get(c, ()):
                if r in sr.get(s, ()):
                    total += 1
    return total


# ---------------------------------------------------------------------------
# the extremal profile by search


def brute_max_intercalates(m: int) -> tuple[int, TripleSystem]:
    """I*(m) with its witness by a search of all m-cell configurations,
    the check on the proved table of ``max_intercalates_oracle``.

    In a configuration where every cell lies in an intercalate, each used
    row, column and symbol occurs at least twice, so floor(m/2) labels per
    class suffice; configurations with idle cells are covered by
    I*(m) >= I*(m-1).  Cells are placed in lexicographic order with
    gap-free labels, and the i-th cell closes at most floor((i-1)/3) new
    intercalates.  The first maximum found is the witness, so the table's
    witnesses are those of this search.
    """
    if m < 4:
        return 0, TripleSystem(max(m, 1), ((i, i, i) for i in range(m)))
    prev_best, prev_witness = brute_max_intercalates(m - 1)
    cap = m // 2
    tail = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        tail[i] = tail[i + 1] + i // 3

    best = prev_best
    best_cells = None
    cells = [(0, 0, 0)]
    symbol_at = {(0, 0): 0}
    column_of = {(0, 0): 0}
    row_of = {(0, 0): 0}

    def closes(r, c, s):
        made = 0
        for (r0, c0, s0) in cells:
            if r0 != r or c0 == c or s0 == s:
                continue
            r2 = row_of.get((c, s0))
            if r2 is not None and symbol_at.get((r2, c0)) == s:
                made += 1
        return made

    def search(count, maxr, maxc, maxs):
        nonlocal best, best_cells
        i = len(cells)
        if i == m:
            if count > best:
                best = count
                best_cells = list(cells)
            return
        if count + tail[i] <= best:
            return
        last = cells[-1]
        for r in range(last[0], min(maxr + 1, cap - 1) + 1):
            for c in range(min(maxc + 1, cap - 1) + 1):
                if (r, c) <= last[:2] or (r, c) in symbol_at:
                    continue
                for s in range(min(maxs + 1, cap - 1) + 1):
                    if (r, s) in column_of or (c, s) in row_of:
                        continue
                    made = closes(r, c, s)
                    cells.append((r, c, s))
                    symbol_at[r, c] = s
                    column_of[r, s] = c
                    row_of[c, s] = r
                    search(count + made, max(maxr, r), max(maxc, c),
                           max(maxs, s))
                    del symbol_at[r, c], column_of[r, s], row_of[c, s]
                    cells.pop()

    search(0, 0, 0, 0)
    if best_cells is None:
        return prev_best, prev_witness
    n = max(max(t) for t in best_cells) + 1
    return best, TripleSystem(n, best_cells)


# ---------------------------------------------------------------------------
# the boosting layer, one triangle or one checked set at a time


def brute_triangle_indexes(n: int, triangles) -> dict:
    """The indexes of ``TriangleSet``, built one triangle at a time:
    ``tris``, ``id3``, ``apex_masks``, ``edge_counts``, ``vertex_counts``."""
    tris = sorted({tuple(int(v) for v in t) for t in triangles})
    id3 = np.full((n, n, n), -1, dtype=np.int64)
    masks = [[[0] * n for _ in range(n)] for _ in range(3)]
    counts = np.zeros((3, n, n), dtype=np.int64)
    vertex = np.zeros((3, n), dtype=np.int64)
    for t, tri in enumerate(tris):
        id3[tri] = t
        for k, (ci, cj, cw) in enumerate(KIND_COLS):
            masks[k][tri[ci]][tri[cj]] |= 1 << tri[cw]
            counts[k, tri[ci], tri[cj]] += 1
            vertex[k, tri[k]] += 1
    return {
        "tris": np.asarray(tris, dtype=np.int64).reshape(-1, 3),
        "id3": id3,
        "apex_masks": [np.asarray(m, dtype=np.uint64).reshape(n, n)
                       for m in masks],
        "edge_counts": list(counts),
        "vertex_counts": vertex,
    }


def brute_weight_sums(tset: TriangleSet, values) -> dict:
    """Vertex and edge sums of triangle weights, added in triangle order
    as Python floats, and their compensated total."""
    n = tset.n
    vertex = np.zeros((3, n))
    edge = [np.zeros((n, n)) for _ in range(3)]
    for tri, w in zip(tset.tris.tolist(), np.asarray(values).tolist()):
        for k, (ci, cj, _) in enumerate(KIND_COLS):
            vertex[k, tri[k]] += w
            edge[k][tri[ci], tri[cj]] += w
    return {"vertex": vertex, "edge": edge, "total": math.fsum(values)}


def brute_chi_uv(tset: TriangleSet, part: int, u: int,
                 v: int) -> WeightFunction:
    """chi_{u,v}: average of the two triangle stars of each K_{2,1,1}
    through same-part vertices u != v.  Vertex weights are +1 at u, -1
    at v, zero elsewhere.  Raises InputError when no K_{2,1,1} passes
    through u and v."""
    grid_u = np.moveaxis(tset.id3, part, 0)
    pu, pv = grid_u[u], grid_u[v]
    both = (pu >= 0) & (pv >= 0)
    m = int(both.sum())
    if m == 0:
        raise InputError("no K_{2,1,1} copies through the pair")
    out = np.zeros(len(tset))
    out[pu[both]] += 1.0 / m
    out[pv[both]] -= 1.0 / m
    return WeightFunction(tset, out)


def brute_chi_part(tset: TriangleSet, part: int) -> np.ndarray:
    """chi_{V^j} = -(1/2n) sum_{u != v} (f_u - f_v) chi_{u,v}, one
    ordered pair at a time; a pair with f_u = f_v adds nothing and is
    skipped, so it needs no K_{2,1,1}."""
    n = tset.n
    f = part_imbalance(tset, part)
    out = np.zeros(len(tset))
    for u, v in itertools.permutations(range(n), 2):
        if f[u] != f[v]:
            coef = -(f[u] - f[v]) / (2.0 * n)
            out += coef * brute_chi_uv(tset, part, u, v).values
    return out


def brute_psi_cycle(tset: TriangleSet, kind: int, e: tuple[int, int],
                    tail: tuple[int, int, int, int]) -> WeightFunction:
    """psi_{J,e} for the single 6-cycle J given by e = (a1, b1) and the
    path tail (a2, b2, a3, b3), a1, a2, a3 distinct and b1, b2, b3
    distinct.  Weight (-1)^{d_J(f, e)} / |W| on the triangles of each
    cycle edge f, where W is the common apex set.  Raises ValueError
    when a cycle edge is missing from the host or W is empty."""
    a1, b1 = e
    a2, b2, a3, b3 = tail
    am = tset.apex_masks[kind]
    ids = tset.id3.transpose(KIND_COLS[kind])  # axes (i, j, apex)
    # the sign is (-1)^{distance to e} around a1 - b1 - a2 - b2 - a3 - b3
    edges = [(a1, b1, 1.0), (a2, b1, -1.0), (a2, b2, 1.0),
             (a3, b2, -1.0), (a3, b3, 1.0), (a1, b3, -1.0)]
    adjk = tset.adj(kind)
    w_mask = np.uint64(~np.uint64(0))
    for x, y, _ in edges:
        if not adjk[x, y]:
            raise ValueError("cycle edge missing from host")
        w_mask &= am[x, y]
    ws = [w for w in range(tset.n) if int(w_mask) >> w & 1]
    if not ws:
        raise ValueError("cycle has no common apex in the triangle set")
    out = np.zeros(len(tset))
    for x, y, sg in edges:
        for w in ws:
            out[ids[x, y, w]] += sg / len(ws)
    return WeightFunction(tset, out)


def brute_conditions(tset: TriangleSet, params, rng: RandomStream):
    """``check_conditions`` one checked vertex set or edge set at a time,
    with the same draws from ``rng`` in the same order.  The random
    pools come from ``_sample_sets``, so each set is compared with the
    set the fast path drew; the law of the draws is tested apart."""
    n = tset.n
    p, q, xi, C = params.p, params.q, params.xi, params.C
    gen = rng.generator
    rep = ConditionReport(n, {k: 0 for k in (1, 2, 3, 4)},
                          {k: 0 for k in (1, 2, 3, 4)}, [])

    def add(v: Violation) -> None:
        rep.violation_counts[v.condition] += 1
        if len(rep.sample) < rep.MAX_STORED:
            rep.sample.append(v)

    target1 = p * p * q * n
    for kind in range(3):
        adjk = tset.adj(kind)
        lo, hi = (1 - xi) * target1, (1 + xi) * target1
        for i in range(n):
            for j in range(n):
                if not adjk[i, j]:
                    continue
                rep.checked[1] += 1
                got = int(tset.edge_counts[kind][i, j])
                if not lo <= got <= hi:
                    add(Violation(1, KIND_NAMES[kind], (i, j), float(got),
                                  lo, hi))

    row_toward = {
        (0, 1): tset.host.adj12, (1, 0): tset.host.adj12.T,
        (1, 2): tset.host.adj23, (2, 1): tset.host.adj23.T,
        (2, 0): tset.host.adj31, (0, 2): tset.host.adj31.T,
    }

    def common_count(members, target):
        rows = [row_toward[part, target][v] for part, v in members]
        out = rows[0].copy()
        for r in rows[1:]:
            out &= r
        return int(out.sum())

    for target in range(3):
        pa, pb = (target + 1) % 3, (target + 2) % 3
        verts = [(pa, v) for v in range(n)] + [(pb, v) for v in range(n)]
        pools = [[[v] for v in verts],
                 [[verts[a], verts[b]]
                  for a in range(2 * n) for b in range(a + 1, 2 * n)]]
        for size in range(3, min(6, 2 * n) + 1):
            pools.append([[verts[t] for t in row] for row in
                          _sample_sets(gen, 2 * n, size, SAMPLE_BUDGET)])
        for pool in pools:
            for members in pool:
                size = len(members)
                lo = (1 - xi) * p**size * n
                hi = (1 + xi) * p**size * n
                got = common_count(members, target)
                rep.checked[2] += 1
                if not lo <= got <= hi:
                    add(Violation(2, str(target), tuple(members),
                                  float(got), lo, hi))

    for kind in range(3):
        am = tset.apex_masks[kind]
        eis, ejs = np.nonzero(tset.adj(kind))
        edge_pool = list(zip(eis.tolist(), ejs.tolist()))
        groups = [[[e] for e in edge_pool]]
        for size in range(2, min(6, len(edge_pool)) + 1):
            groups.append([[edge_pool[t] for t in row] for row in
                           _sample_sets(gen, len(edge_pool), size,
                                        SAMPLE_BUDGET)])
        for pool in groups:
            for edges in pool:
                mask = np.uint64(~np.uint64(0))
                vs = set()
                for (i, j) in edges:
                    mask &= am[i, j]
                    vs.add(("i", i))
                    vs.add(("j", j))
                got = int(mask).bit_count()
                lo = p ** len(vs) * n / C
                hi = p ** len(vs) * n * C
                rep.checked[3] += 1
                if not lo <= got <= hi:
                    add(Violation(3, KIND_NAMES[kind], tuple(edges),
                                  float(got), lo, hi))

    rep.checked[4] += 1
    pairs = tset.edges_per_pair
    if len(set(pairs)) > 1:
        add(Violation(4, "all", ("cross-pair counts",), float(max(pairs)),
                      float(min(pairs)), float(min(pairs))))
    gap_cap = n ** (2 / 3)
    for part in range(3):
        for v in range(n):
            rep.checked[4] += 1
            # degree toward the next part against degree from the previous
            gap = abs(int(tset.adj(part)[v].sum())
                      - int(tset.adj((part + 2) % 3)[:, v].sum()))
            if gap > gap_cap:
                add(Violation(4, str(part), (v,), float(gap), 0.0, gap_cap))
    return rep
