"""Exact substructure counters.

Intercalates (2 x 2 Latin subsquares) and cuboctahedron totals are
counted by numpy kernels on the symbol grid of a square, rectangle or
partial system.  A grid holds symbol n on empty cells and gets an
always-empty pad column n; pos[row, symbol] is the column of the symbol
in the row, n if absent.  For rows i < j, sigma = pos[j][g[i]] sends
each column to the column of row j holding the same symbol (n if none),
and each 2-cycle of sigma is one intercalate on that row pair.
O(k^2 n) per grid, for a stack of same-shape grids at once.

A cuboctahedron is an ordered pair of quadruples (r1, r2, c1, c2) and
(r1', r2', c1', c2') whose 2 x 2 symbol patterns agree position by
position; degenerate coincidences (equal rows, equal columns, repeated
symbols, shared cells) are allowed.  The total count is sum of class^2
over quadruples grouped by pattern (a, b, c, d), which in a Latin grid
fixes the shape (a = c exactly when r1 = r2, a = b when c1 = c2); group
tables hit exactly n^5 by the quadrangle condition.  For each symbol a,
one bincount of the keys b n^2 + c n + d over (r1, r2, c2), with
c1 = pos[r1, a], gives its classes; a digit of an empty cell is n^3,
which keys the quadruple out of the first n^3 bins.  This is O(k^2 n^2)
for k rows whatever the fill, so desk-capped at n <= 64;
cuboctahedron_report(obj).total counts without the cap.  Nondegenerate
copies (four distinct rows, columns and symbols) are the same-pattern
pairs that share no row or column.

The proper quadruples (r1 != r2, c1 != c2) are enumerated once per
filled 2 x 2 submatrix: the cell pairs that share a column, then the
pairs of those on a common row pair.  Each step sorts its group keys
(the column, the row pair) stably, as uint16 when below 2^16 so that
numpy sorts them by radix, and lists each group's pairs by offset: for
k = 1, 2, ... the sorted positions i whose group still holds at i + k.
The cells are in row-major order, so a column pair has r1 < r2.  Each
submatrix stands for four ordered quadruples, one per row order and
column order.  When its four symbols are distinct, these four have four
different patterns, so every ordered class is one of four equal-size
images of a canonical class, whose members are turned so that the
smallest symbol sits at (r1, c1); sum m, sum m^2 and the nondegenerate
pair count over the ordered classes are exactly 4 times their canonical
values.  The canonical key of a submatrix comes from the vertical
dominoes of its column pairs P and Q, v = top n + bottom and
w = bottom n + top: the least of v_P n^2 + v_Q, v_Q n^2 + v_P,
w_P n^2 + w_Q and w_Q n^2 + w_P.  In a sparse system almost every class
is a singleton, which adds nothing to sum m(m - 1), so only the
submatrices whose key repeats are built as records and filtered for
distinct symbols; sum m is 4 times the number of distinct-symbol
submatrices, and sum m^2 is sum m plus 4 times sum m(m - 1) over the
canonical classes.  In a canonical class the Latin property makes each
of r1, r2, c1, c2 determine the member, so every row or column
coincidence pins a unique partner, found for all classes at once by
sorted lookups of (class, coordinate); no loop runs over the classes.
A pattern with a repeated symbol can be fixed by a swap (an intercalate
is fixed by swapping both rows and columns), so those submatrices are
expanded into their four ordered quadruples and grouped as they are.
The collapsed 1 x 1, 2 x 1 and 1 x 2 shapes are keyed by their symbols,
the cell pairs on a line taken in both orders.

Girth here is the triple-system girth: the smallest g > 3 such that some
g vertices of the tripartite vertex set span g - 2 triples.  In a partial
Latin square two vertices lie in at most one triple, so a rows, b
columns and c symbols hold at most min(ab, bc, ca) triples; that rules
out g = 4, 5 and 7 and leaves at g = 6 only the filled 2 x 2 block.  So
girth 6 is exactly an intercalate, found by the grid kernel on the rows
holding two triples, and an intercalate-free partial square has girth at
least 8.  A system that is not Latin has two triples sharing a cell, a
row symbol or a column symbol, which span 4 vertices, so its girth is 4.
Past that, in an intercalate-free Latin input, a smallest configuration
is a connected triple set, and the search generates each connected set
spanning at most g_max vertices once, from its least member, by
Wernicke's ESU enumeration: a set grows only by triples from
its extension list, which gains, with each added triple, the triples
above the root that meet it and nothing the set already spans.  No set
of visited states is kept.  A set whose span already equals the cap is
not grown: adding the triples inside its span V one at a time lowers
(vertices - triples) by one each, so some set on V is a configuration
exactly when at least |V| - 2 triples lie inside V, which is counted
through a (row, column) index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    InputError,
    LatinRectangle,
    LatinSquare,
    TripleSystem,
    stable_sort,
    to_triples,
    validate,
)

DEGENERACY_LABELS = (
    "same-2x2-distinct-symbols",
    "same-2x2-repeated-symbol",
    "two-2x1-same-symbols",
    "same-2x1-twice",
    "two-1x2-same-symbols",
    "same-1x2-twice",
    "two-cells-same-symbol",
    "same-cell-twice",
    "opposite-face-overlap",
    "row-or-column-sharing",
    "repeated-symbol-other",
)


# ---------------------------------------------------------------------------
# grid kernels: intercalates and cuboctahedron totals


def count_intercalates(obj) -> int:
    """Number of 2 x 2 Latin subsquares (unordered) of a square,
    rectangle or partial Latin square."""
    return count_intercalates_each([obj])[0]


def count_intercalates_each(objs) -> list[int]:
    """count_intercalates of each of same-shape inputs, in one pass."""
    grids = [_symbol_grid(obj) for obj in objs]
    return _intercalates(np.stack(grids)).tolist() if grids else []


def _symbol_grid(obj) -> np.ndarray:
    """The k x n symbol grid of obj, symbol n on empty cells."""
    if isinstance(obj, (LatinSquare, LatinRectangle)):
        return obj.grid
    if isinstance(obj, TripleSystem):
        _require_latin(obj)
        grid = obj.cell_grid()
        return np.where(grid < 0, obj.n, grid)
    raise TypeError(f"no symbol grid for {type(obj).__name__}")


def _padded(grids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grids with pad column n, and their pos tables."""
    n = grids.shape[-1]
    g = np.full((*grids.shape[:-1], n + 1), n, dtype=np.intp)
    g[..., :n] = grids
    pos = np.full_like(g, n)
    np.put_along_axis(pos, g, np.broadcast_to(np.arange(n + 1), g.shape),
                      axis=-1)
    pos[..., n] = n  # every empty cell wrote its column here
    return g, pos


def _intercalates(grids: np.ndarray) -> np.ndarray:
    """Intercalates of each grid of a (b, k, n) stack of symbol grids,
    taking the (grid, row pair) items in blocks of about 2^16 entries."""
    b, k, n = grids.shape
    g, pos = _padded(grids)
    cols = np.arange(n + 1)
    top, bottom = np.triu_indices(k, 1)
    items = b * len(top)
    out = np.zeros(b, dtype=np.int64)
    step = max(1, 2**16 // (n + 1))
    for start in range(0, items, step):
        grid, pair = np.divmod(np.arange(start, min(start + step, items)),
                               len(top))
        sigma = np.take_along_axis(pos[grid, bottom[pair]],
                                   g[grid, top[pair]], axis=1)
        back = np.take_along_axis(sigma, sigma, axis=1)
        np.add.at(out, grid, ((back == cols) & (sigma != cols)).sum(axis=1))
    return out // 2


def count_cuboctahedra_total(obj) -> int:
    """Ordered same-pattern quadruple pairs, degeneracies included.

    Desk-capped at n <= 64 for every input, as the cost does not shrink
    with the fill; ``cuboctahedron_report(obj).total`` has no cap."""
    grid = _symbol_grid(obj)
    n = grid.shape[1]
    if n > 64:
        raise InputError("cuboctahedron totals are desk-capped at n <= 64; "
                         "cuboctahedron_report(obj).total has no cap")
    g, col_of = _padded(grid)
    # digit tables, n^3 on empty cells (the symbol n gives b n^2 = n^3)
    n3 = n**3
    empty = g == n
    hi = g[:, :n] * (n * n)
    mid = np.where(empty, n3, g * n)
    lo = np.where(empty, n3, g)[:, :n]
    # L[r1][c2] n^2 + L[r2][c2] at [r1, r2, c2]; L[r2][c1] n goes between
    right = hi[:, None, :] + lo[None, :, :]
    total = 0
    for a in range(n):
        left = mid[:, col_of[:, a]].T[:, :, None]
        m = np.bincount((right + left).ravel(), minlength=n3)[:n3]
        total += int(m @ m)
    return total


# ---------------------------------------------------------------------------
# quadruple enumeration shared by the nondegenerate count and the report


def _require_latin(ts: TripleSystem) -> None:
    report = validate(ts)
    if not report:
        raise InputError(report.message)


def _cells_of(obj) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    if isinstance(obj, (LatinSquare, LatinRectangle)):
        obj = to_triples(obj)
    elif isinstance(obj, TripleSystem):
        _require_latin(obj)
    else:
        raise TypeError(f"no cell view for {type(obj).__name__}")
    return (*obj.array.T, obj.n)


def _same_group_pairs(groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (P, Q), P < Q, of the records with equal nonnegative
    group keys, each unordered pair once.

    A stable sort keeps each group's records in their input order.  The
    pairs are then listed by offset: for k = 1, 2, ... the sorted
    positions i with the same group at i + k, until there are none.
    """
    order, groups = stable_sort(groups)
    P, Q = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for k in range(1, len(groups)):
        i = np.flatnonzero(groups[k:] == groups[:-k])
        if not len(i):
            break
        P.append(order[i])
        Q.append(order[i + k])
    return np.concatenate(P), np.concatenate(Q)


# rows of a quadruple record array: rows r1, r2, columns c1, c2 and the
# symbol pattern (a, b, c, d) = cells (r1, c1), (r1, c2), (r2, c1), (r2, c2)
_R1, _R2, _C1, _C2, _A, _B, _C, _D = range(8)
_ROW_SWAP = [_R2, _R1, _C1, _C2, _C, _D, _A, _B]
_COL_SWAP = [_R1, _R2, _C2, _C1, _B, _A, _D, _C]


def _column_pairs(cells):
    """Cell index pairs (P, Q) sharing a column, rows[P] < rows[Q], as
    the cells are in row-major order."""
    return _same_group_pairs(cells[1])


def _quadruple_pairs(cells, col_pairs):
    """Index pairs (P, Q) into ``col_pairs`` of two column pairs on one
    row pair: every 2 x 2 submatrix with four filled cells, once."""
    rows, n = cells[0], cells[3]
    top, bottom = col_pairs
    return _same_group_pairs(rows[top] * n + rows[bottom])


def _proper_quadruples(cells, col_pairs, quads=None) -> np.ndarray:
    """The 8-row record array, r1 < r2 and c1 < c2, of the quadruples
    ``quads`` of ``_quadruple_pairs``, by default all of them: every
    2 x 2 submatrix with four filled cells, once.  ``col_pairs`` comes
    from ``_column_pairs(cells)``."""
    rows, cols, syms, _ = cells
    top, bottom = col_pairs
    P, Q = _quadruple_pairs(cells, col_pairs) if quads is None else quads
    left = cols[top[P]] < cols[top[Q]]
    P, Q = np.where(left, P, Q), np.where(left, Q, P)
    a, b, c, d = top[P], top[Q], bottom[P], bottom[Q]
    return np.stack((rows[a], rows[c], cols[a], cols[b],
                     syms[a], syms[b], syms[c], syms[d]))


def _pattern_keys(q: np.ndarray, n: int) -> np.ndarray:
    return ((q[_A] * n + q[_B]) * n + q[_C]) * n + q[_D]


def _distinct_symbols(q: np.ndarray) -> np.ndarray:
    # a != b, a != c, b != d and c != d already hold by the Latin property
    return (q[_A] != q[_D]) & (q[_B] != q[_C])


def _oriented(q: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows and columns (r1, r2, c1, c2) of distinct-symbol records
    turned to canonical orientation: rows swapped when the smallest
    symbol is in r2, then columns when it is in c2."""
    flip = np.minimum(q[_C], q[_D]) < np.minimum(q[_A], q[_B])
    swap = np.where(flip, q[_D] < q[_C], q[_B] < q[_A])
    return (np.where(flip, q[_R2], q[_R1]), np.where(flip, q[_R1], q[_R2]),
            np.where(swap, q[_C2], q[_C1]), np.where(swap, q[_C1], q[_C2]))


def _orientations(q: np.ndarray) -> np.ndarray:
    """The ordered records of q: each in its four row and column orders."""
    rows = q[_ROW_SWAP]
    return np.concatenate((q, rows, q[_COL_SWAP], rows[_COL_SWAP]), axis=1)


def _group_square_sum(keys: np.ndarray) -> tuple[int, int]:
    """(sum of class^2, sum of class) over records grouped by key."""
    if len(keys) == 0:
        return 0, 0
    _, counts = np.unique(keys, return_counts=True)
    counts = counts.astype(np.int64)
    return int((counts**2).sum()), int(counts.sum())


def _collapsed_shapes(cells, col_pairs) -> list[tuple[int, int]]:
    """_group_square_sum of the 1x1, 2x1 and 1x2 quadruple shapes.

    (r, r, c, c) is keyed by its symbol, (r1, r2, c, c) and (r, r, c1, c2)
    by their ordered symbol pairs, each unordered cell pair giving both.
    """
    rows, _, syms, n = cells

    def both_ways(P, Q):
        x, y = syms[P], syms[Q]
        return _group_square_sum(np.concatenate((x * n + y, y * n + x)))

    return [_group_square_sum(syms), both_ways(*col_pairs),
            both_ways(*_same_group_pairs(rows))]


# ---------------------------------------------------------------------------
# nondegenerate copies and the degeneracy breakdown


def _partners(cls, src, dst, n):
    """Index pairs (i, j) with cls[j] == cls[i] and src[j] == dst[i].

    ``src`` must be injective within each class, so each i has at most
    one partner; it is found by one sorted lookup of (class, coordinate).
    """
    key = cls * n + src
    order = np.argsort(key)
    sk = key[order]
    want = cls * n + dst
    pos = np.minimum(np.searchsorted(sk, want), len(sk) - 1)
    i = np.flatnonzero(sk[pos] == want)
    return i, order[pos[i]]


def _distinct_class_sums(cells, col_pairs, quads) -> tuple[int, int]:
    """(sum m(m - 1), nondegenerate pairs) over the ordered
    distinct-symbol pattern classes, m being the size of a class, from
    the quadruples ``quads`` of ``_quadruple_pairs``.

    Each ordered class is one of four equal images of a canonical class,
    so every sum is four times its canonical value.  The domino key of a
    quadruple is the least, over its four orientations, of the pattern
    key with the digits in the order (a, c, b, d); a least element names
    its orbit, so the classes are those of the pattern.  Singleton
    classes add nothing, so only the records whose key repeats are built
    and filtered for distinct symbols.

    In a canonical class each of r1, r2, c1, c2 determines the member,
    so a pair of distinct members shares a row exactly when r1' = r2
    (event E1) or r2' = r1 (E2), and a column exactly when c1' = c2 (F1)
    or c2' = c1 (F2).  E2 and F2 are the transposes of E1 and F1, and
    the pairs sharing a row or column are the union of the four.
    """
    syms, n = cells[2], cells[3]
    top, bottom = col_pairs
    P, Q = quads
    n2 = n * n
    hi, lo = syms[top], syms[bottom]
    keys = []
    for v in (hi * n + lo, lo * n + hi):
        # the lesser of v_P n^2 + v_Q and v_Q n^2 + v_P; the leading
        # digits of v_P and v_Q share a row, so they differ
        vP, vQ = v[P], v[Q]
        keys.append(np.minimum(vP, vQ) * n2 + np.maximum(vP, vQ))
    keys = np.minimum(*keys)
    ordered = np.sort(keys)
    repeats = ordered[1:][ordered[1:] == ordered[:-1]]
    keep = np.flatnonzero(np.isin(keys, repeats))
    q = _proper_quadruples(cells, col_pairs, (P[keep], Q[keep]))
    distinct = _distinct_symbols(q)
    q = q[:, distinct]
    _, cls, sizes = np.unique(keys[keep][distinct], return_inverse=True,
                              return_counts=True)
    pairs = int((sizes * (sizes - 1)).sum())
    R1, R2, C1, C2 = _oriented(q)
    m = len(cls)
    e_i, e_j = _partners(cls, R1, R2, n)
    f_i, f_j = _partners(cls, C1, C2, n)
    # counted on a sort, many times faster than a bare np.unique
    sharing = np.sort(np.concatenate(
        (e_i * m + e_j, e_j * m + e_i, f_i * m + f_j, f_j * m + f_i)
    ))
    shared = len(sharing) and 1 + int(np.count_nonzero(np.diff(sharing)))
    return 4 * pairs, 4 * (pairs - shared)


def count_cuboctahedra_nondegenerate(obj) -> int:
    """Same-pattern quadruple pairs with 4 distinct rows, columns, symbols."""
    cells = _cells_of(obj)
    col_pairs = _column_pairs(cells)
    return _distinct_class_sums(cells, col_pairs,
                                _quadruple_pairs(cells, col_pairs))[1]


def _ordered_pairs(keys: np.ndarray) -> int:
    """Ordered pairs of distinct records with equal keys."""
    sq, lin = _group_square_sum(keys)
    return sq - lin


@dataclass
class CuboctahedronReport:
    n: int
    total: int
    nondegenerate: int
    breakdown: dict[str, int] = field(default_factory=dict)

    def degenerate_total(self) -> int:
        return sum(self.breakdown.values())


_COLLAPSED_LABELS = (
    ("same-cell-twice", "two-cells-same-symbol"),
    ("same-2x1-twice", "two-2x1-same-symbols"),
    ("same-1x2-twice", "two-1x2-same-symbols"),
)


def cuboctahedron_report(obj) -> CuboctahedronReport:
    """Full cuboctahedron census with the degenerate classes labeled.

    The breakdown plus the nondegenerate count partitions the total:
    point/column/row collapses, the same proper submatrix taken twice,
    opposite-face overlaps (same repeated-symbol pattern sharing exactly
    one cell), proper distinct-symbol pairs sharing a row or column, and
    a residual class for the remaining repeated-symbol coincidences.

    No pair is listed.  Two records of one pattern class sharing sr rows
    and sc columns share sr * sc cells.  Summing g(g - 1) over the groups
    of (class, cell), (class, row pair, column), (class, row, column
    pair) and (class, row pair, column pair) weighs each ordered pair by
    sr sc, [sr = 2] sc, sr [sc = 2] and [sr = 2][sc = 2]; the first,
    minus twice the middle two, plus four times the last, is [sr = sc = 1].
    """
    cells = _cells_of(obj)
    n = cells[3]
    col_pairs = _column_pairs(cells)
    out = dict.fromkeys(DEGENERACY_LABELS, 0)
    for (sq, lin), (twice, pairs) in zip(_collapsed_shapes(cells, col_pairs),
                                         _COLLAPSED_LABELS):
        out[twice] = lin
        out[pairs] = sq - lin

    quads = _quadruple_pairs(cells, col_pairs)
    q = _proper_quadruples(cells, col_pairs, quads)
    distinct = _distinct_symbols(q)
    rep = _orientations(q[:, ~distinct])
    R1, R2, C1, C2 = rep[:4]
    row_pair = np.minimum(R1, R2) * n + np.maximum(R1, R2)
    col_pair = np.minimum(C1, C2) * n + np.maximum(C1, C2)
    _, cls = np.unique(_pattern_keys(rep, n), return_inverse=True)
    # (class, row pair) and (class, column pair) as dense ranks
    _, rp = np.unique(cls * n * n + row_pair, return_inverse=True)
    _, cp = np.unique(cls * n * n + col_pair, return_inverse=True)
    one_cell = (
        _ordered_pairs(np.concatenate(
            [(cls * n + r) * n + c for r in (R1, R2) for c in (C1, C2)]))
        - 2 * _ordered_pairs(np.concatenate((rp * n + C1, rp * n + C2)))
        - 2 * _ordered_pairs(np.concatenate((cp * n + R1, cp * n + R2)))
        + 4 * _ordered_pairs(rp * n * n + col_pair))
    out["same-2x2-repeated-symbol"] = rep.shape[1]
    out["opposite-face-overlap"] = one_cell
    out["repeated-symbol-other"] = _ordered_pairs(cls) - one_cell

    out["same-2x2-distinct-symbols"] = 4 * int(np.count_nonzero(distinct))
    del q  # frees the full record array before the class step
    pairs, nondeg = _distinct_class_sums(cells, col_pairs, quads)
    out["row-or-column-sharing"] = pairs - nondeg

    total = nondeg + sum(out.values())
    return CuboctahedronReport(n=n, total=total, nondegenerate=nondeg, breakdown=out)


# ---------------------------------------------------------------------------
# order-k subsquares


def count_subsquares(square: LatinSquare, k: int) -> int:
    """Number of k x k Latin subsquares (row set, column set pairs), k in 2..4.

    For the first two rows of a candidate row set, the column set must be
    a union of cycles of the induced permutation (fixed points cannot
    occur), which reduces the column search to 2-cycles, 3-cycles, or
    4-cycles / pairs of 2-cycles.
    """
    if not isinstance(square, LatinSquare):
        raise TypeError(f"subsquares need a LatinSquare, not "
                        f"{type(square).__name__}")
    n = square.n
    if not 2 <= k <= 4:
        raise InputError("supported subsquare orders are 2, 3, 4")
    if n > 40:
        raise InputError("subsquare counting is desk-capped at n <= 40")
    if k == 2:
        return count_intercalates(square)
    g, pos = _padded(square.grid)

    def cycles_of(i: int, j: int):
        sigma = pos[j][g[i]].tolist()
        seen, out = set(), []
        for x in range(n):
            cyc, y = [], x
            while y not in seen:
                seen.add(y)
                cyc.append(y)
                y = sigma[y]
            if cyc:
                out.append(cyc)
        return out

    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            cycles = cycles_of(i, j)
            candidates = [c for c in cycles if len(c) == k]
            if k == 4:
                twos = [c for c in cycles if len(c) == 2]
                candidates += [a + b for a, b in itertools.combinations(twos, 2)]
            for cols in candidates:
                colarr = np.array(cols)
                symbols = g[i][colarr]
                # deeper rows must use exactly these k symbols on these columns
                ok = np.isin(g[j + 1 :, colarr], symbols).all(axis=1)
                w = int(ok.sum())
                if k == 3:
                    total += w
                else:
                    total += w * (w - 1) // 2
    return total


# ---------------------------------------------------------------------------
# girth


def girth(obj, g_max: int = 12) -> int | None:
    """Smallest g in (3, g_max] with g vertices spanning g - 2 triples.

    Returns None when every configuration on at most g_max vertices is
    strictly sparser, i.e. the girth exceeds g_max.  Systems need not be
    Latin, but a coordinate outside range(n) raises InputError.

    A system that is not Latin has two triples that agree in two
    coordinates, and so span 4 vertices: its girth is 4.  Latin floor:
    two vertices of a partial Latin square lie in at most one triple, so
    a rows, b columns and c symbols hold at most min(ab, bc, ca) triples.
    With a + b + c = g that is below g - 2 for g = 4, 5 and 7 (at best
    1, 2 and 4, from 2 + 1 + 1, 2 + 2 + 1 and 3 + 2 + 2), and at g = 6
    only 2 + 2 + 2 reaches 4: four triples filling a 2 x 2 block, an
    intercalate.  So a Latin input has girth 6 exactly when
    ``_intercalates`` finds one on its symbol grid (only rows holding two
    triples can be in one, so the others are dropped first), and
    otherwise no girth below 8, from which ``_girth_search`` starts.
    """
    if isinstance(obj, (LatinSquare, LatinRectangle)):
        obj = to_triples(obj)
    if not isinstance(obj, TripleSystem):
        raise TypeError(f"girth undefined for {type(obj).__name__}")
    if g_max > 12:
        raise InputError("girth search is desk-capped at g_max <= 12")
    if not validate(obj):
        # validate names only the first violation, which may be a clash
        # sorted before an out-of-range triple
        n = obj.n
        for t in obj.triples:
            if not all(0 <= x < n for x in t):
                raise InputError(f"coordinate out of range in {t}")
        return 4 if g_max >= 4 else None
    if g_max < 6:
        return None
    grid = obj.cell_grid()
    grid = grid[(grid >= 0).sum(axis=1) >= 2]
    if _intercalates(np.where(grid < 0, obj.n, grid)[None])[0]:
        return 6
    return None if g_max < 8 else _girth_search(obj, g_max)


def _girth_search(ts: TripleSystem, g_max: int) -> int | None:
    """girth(ts, g_max) by search, for an intercalate-free partial Latin
    square, which ``girth`` has checked: no configuration of such a
    system spans fewer than 8 vertices (see ``girth``), so the roots stop
    once the best girth found is 8.  The enumeration itself is exact on
    any system with coordinates in range(n), so on a Latin input with
    intercalates it is exact too while g_max < 8.

    The search lists every connected triple set whose least member is
    the root exactly once (Wernicke's ESU enumeration, with triples as
    the nodes and a shared vertex as the edge), so no set of visited
    states is kept.  A state is its member count, the bitmask of the
    vertices it spans and its extension list.  Vertex counts only grow
    along a branch, so a triple that would take the span past the cap
    (g_max, then one below the best girth found) is skipped, and a set
    spanning |members| + 2 vertices is recorded and not extended.

    Cap states: a set whose span V equals the cap can only grow by
    triples inside V, so it is entered by ``close``, which copies and
    extends no extension list, and is a hit exactly when at least
    |V| - 2 triples lie inside V.  The members lie inside V and cover
    it, and each further inside triple lowers (vertices - triples) by
    one, so adding them one at a time passes through exactly |V| - 2
    triples on V if and only if there are that many; with fewer, no set
    on V is dense enough.  The inside triples are counted through a
    (row, column) -> symbol-bits index over V's rows and columns.
    """
    n = ts.n
    # vertex ids r, n + c, 2n + s are the bit positions
    tris = [(r, n + c, 2 * n + s) for r, c, s in ts.triples]
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in tris]
    incident: list[list[int]] = [[] for _ in range(3 * n)]
    for t, tri in enumerate(tris):
        for v in tri:
            incident[v].append(t)
    # r n + c -> the symbol vertex bits of cell (r, c); the triples are
    # distinct, so each holds one bit per triple
    cell_syms: dict[int, int] = {}
    for r, c, s in ts.triples:
        cell_syms[r * n + c] = cell_syms.get(r * n + c, 0) | 1 << (2 * n + s)
    part = (1 << n) - 1

    best: int | None = None
    cap = g_max

    def extend(ext: list[int], root: int, w: int, spanned: int) -> None:
        # ESU's exclusive neighbourhood of w, appended once each: the
        # triples above the root that meet w and no vertex in ``spanned``
        blocked = spanned
        for v in tris[w]:
            b = 1 << v
            if blocked & b:
                continue
            for u in incident[v]:
                if u > root and not masks[u] & blocked:
                    ext.append(u)
            blocked |= b

    def grow(size: int, spanned: int, ext: list[int], root: int) -> None:
        nonlocal best, cap
        while ext:
            w = ext.pop()
            nv = spanned | masks[w]
            count = nv.bit_count()
            if count > cap:
                continue
            if count == size + 3:
                best = count
                cap = count - 1
            elif count < cap:
                child = ext.copy()
                extend(child, root, w, spanned)
                grow(size + 1, nv, child, root)
            else:
                close(nv, count)

    def close(spanned: int, count: int) -> None:
        nonlocal best, cap
        need = count - 2
        rows, cols = spanned & part, spanned >> n & part
        while rows:
            r = rows & -rows
            rows ^= r
            base = (r.bit_length() - 1) * n
            m = cols
            while m:
                c = m & -m
                m ^= c
                need -= (cell_syms.get(base + c.bit_length() - 1, 0)
                         & spanned).bit_count()
        if need <= 0:
            best = count
            cap = count - 1

    for root in range(len(tris)):
        if best == 8:
            break
        ext: list[int] = []
        extend(ext, root, root, 0)
        grow(1, masks[root], ext, root)
    return best
