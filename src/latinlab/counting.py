"""Exact substructure counters.

Intercalates (2 x 2 Latin subsquares) are counted by one numpy kernel
for squares, rectangles, partial systems and stacks of same-shape grids.
A grid holds symbol n on empty cells and gets an always-empty pad column
n; pos[row, symbol] is the column of the symbol in the row, n if absent.
For rows i < j, sigma = pos[j][g[i]] sends each column to the column of
row j holding the same symbol (n if none), and each 2-cycle of sigma is
one intercalate on that row pair.  O(k^2 n) per grid.

A cuboctahedron is an ordered pair of quadruples (r1, r2, c1, c2) and
(r1', r2', c1', c2') whose 2 x 2 symbol patterns agree position by
position; degenerate coincidences (equal rows, equal columns, repeated
symbols, shared cells) are allowed.  The total count is sum of class^2
over quadruples grouped by shape and pattern; group tables hit exactly
n^5 by the quadrangle condition.  Nondegenerate copies (four distinct
rows, columns and symbols) are the same-pattern pairs that share no row
or column.

The proper quadruples (r1 != r2, c1 != c2) are enumerated once per
filled 2 x 2 submatrix, with r1 < r2 and c1 < c2: the cell pairs that
share a column, then the pairs of those on a common row pair.  Each
submatrix stands for four ordered quadruples, one per row order and
column order.  When its four symbols are distinct, these four have four
different patterns, so every ordered class is one of four equal-size
images of a canonical class, whose members are turned so that the
smallest symbol sits at (r1, c1); sum m, sum m^2 and the nondegenerate
pair count over the ordered classes are exactly 4 times their canonical
values.  In a canonical class the Latin property makes each of r1, r2,
c1, c2 determine the member, so every row or column coincidence pins a
unique partner, found for all classes at once by sorted lookups of
(class, coordinate); no loop runs over the classes.  A pattern with a
repeated symbol can be fixed by a swap (an intercalate is fixed by
swapping both rows and columns), so those submatrices are expanded into
their four ordered quadruples and grouped as they are.  The collapsed
1 x 1, 2 x 1 and 1 x 2 shapes are keyed by their symbols, the cell pairs
on a line taken in both orders.

Girth here is the triple-system girth: the smallest g > 3 such that some
g vertices of the tripartite vertex set span g - 2 triples.  Girth
greater than 6 is equivalent to having no intercalate.  A smallest such
configuration is a connected triple set, and the search generates each
connected set spanning at most g_max vertices once, from its least
member, by Wernicke's ESU enumeration: a set grows only by triples from
its extension list, which gains, with each added triple, the triples
above the root that meet it and nothing the set already spans.  No set
of visited states is kept.
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
# intercalates


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
    raise TypeError(f"cannot count intercalates of {type(obj).__name__}")


def _intercalates(grids: np.ndarray) -> np.ndarray:
    """Intercalates of each grid of a (b, k, n) stack of symbol grids,
    taking the (grid, row pair) items in blocks of about 2^16 entries."""
    b, k, n = grids.shape
    g = np.full((b, k, n + 1), n, dtype=np.intp)
    g[..., :n] = grids
    cols = np.arange(n + 1)
    pos = np.full_like(g, n)
    np.put_along_axis(pos, g, np.broadcast_to(cols, g.shape), axis=2)
    pos[..., n] = n  # every empty cell wrote its column here
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


# ---------------------------------------------------------------------------
# quadruple enumeration shared by the cuboctahedron counters


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


def _pairs_in_groups(keys: np.ndarray, span: int = 1):
    """Index pairs (P, Q) of the records in a common group, each
    unordered pair once.

    A record's group is ``keys // span``.  With distinct keys the pairs
    come out ordered, keys[P] < keys[Q].
    """
    order = np.argsort(keys)
    groups = keys[order] // span
    m = len(groups)
    starts = np.flatnonzero(np.concatenate(([True], groups[1:] != groups[:-1])))
    sizes = np.diff(np.append(starts, m))
    # sorted position k pairs with the rest of its group after it
    later = np.repeat(starts + sizes, sizes) - np.arange(m) - 1
    i = np.repeat(np.arange(m), later)
    first = np.repeat(np.cumsum(later) - later, later)
    j = i + 1 + np.arange(len(i)) - first
    return order[i], order[j]


# rows of a quadruple record array: rows r1, r2, columns c1, c2 and the
# symbol pattern (a, b, c, d) = cells (r1, c1), (r1, c2), (r2, c1), (r2, c2)
_R1, _R2, _C1, _C2, _A, _B, _C, _D = range(8)
_ROW_SWAP = [_R2, _R1, _C1, _C2, _C, _D, _A, _B]
_COL_SWAP = [_R1, _R2, _C2, _C1, _B, _A, _D, _C]


def _column_pairs(cells):
    """Cell index pairs (P, Q) sharing a column, rows[P] < rows[Q]."""
    rows, cols, _, n = cells
    return _pairs_in_groups(cols * n + rows, n)


def _proper_quadruples(cells, col_pairs) -> np.ndarray:
    """Every 2 x 2 submatrix with four filled cells, once, as an 8-row
    record array with r1 < r2 and c1 < c2; ``col_pairs`` comes from
    ``_column_pairs(cells)``."""
    rows, cols, syms, n = cells
    top, bottom = col_pairs
    # two column pairs on one row pair, the left one first
    P, Q = _pairs_in_groups((rows[top] * n + rows[bottom]) * n + cols[top], n)
    a, b, c, d = top[P], top[Q], bottom[P], bottom[Q]
    return np.stack((rows[a], rows[c], cols[a], cols[b],
                     syms[a], syms[b], syms[c], syms[d]))


def _pattern_keys(q: np.ndarray, n: int) -> np.ndarray:
    return ((q[_A] * n + q[_B]) * n + q[_C]) * n + q[_D]


def _distinct_symbols(q: np.ndarray) -> np.ndarray:
    # a != b, a != c, b != d and c != d already hold by the Latin property
    return (q[_A] != q[_D]) & (q[_B] != q[_C])


def _canonical_keys(q: np.ndarray, n: int) -> np.ndarray:
    """Pattern keys of distinct-symbol records in canonical orientation,
    the one with the smallest symbol at a.  Symbol a leads the key, so
    that is the least of the four orientation keys."""
    a, b, c, d = q[_A:]
    ab, cd, ba, dc = a * n + b, c * n + d, b * n + a, d * n + c
    n2 = n * n
    return np.minimum(np.minimum(ab * n2 + cd, cd * n2 + ab),
                      np.minimum(ba * n2 + dc, dc * n2 + ba))


def _canonical(q: np.ndarray) -> tuple[np.ndarray, ...]:
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


# ---------------------------------------------------------------------------
# totals


def count_cuboctahedra_total(obj) -> int:
    """Ordered same-pattern quadruple pairs, degeneracies included."""
    if isinstance(obj, LatinSquare):
        return _total_dense(obj)
    return _total_generic(obj)


def _total_dense(sq: LatinSquare) -> int:
    # Kept beside _total_generic for full squares: one np.unique over the
    # n^4 pattern keys of the grid is faster than enumerating cell pairs
    # (timings in CHANGES.md).  Partial inputs have no grid and take the
    # generic path.
    n = sq.n
    if n > 64:
        raise InputError("dense cuboctahedron totals are desk-capped at n <= 64")
    g = sq.grid.astype(np.uint32)
    a = g[:, None, :, None]
    b = g[:, None, None, :]
    c = g[None, :, :, None]
    d = g[None, :, None, :]
    keys = (((a * n + b) * n + c) * n + d).ravel()
    _, counts = np.unique(keys, return_counts=True)
    return int((counts.astype(np.int64) ** 2).sum())


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
            both_ways(*_pairs_in_groups(rows))]


def _total_generic(obj) -> int:
    cells = _cells_of(obj)
    n = cells[3]
    col_pairs = _column_pairs(cells)
    q = _proper_quadruples(cells, col_pairs)
    distinct = _distinct_symbols(q)
    canon, _ = _group_square_sum(_canonical_keys(q[:, distinct], n))
    rep, _ = _group_square_sum(_pattern_keys(_orientations(q[:, ~distinct]), n))
    return (4 * canon + rep
            + sum(sq for sq, _ in _collapsed_shapes(cells, col_pairs)))


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


def _distinct_class_sums(q: np.ndarray, n: int) -> tuple[int, int, int]:
    """(sum m, sum m^2, nondegenerate pairs) over the ordered
    distinct-symbol pattern classes, m being the size of a class, from
    the distinct-symbol records q, one per submatrix.

    Each ordered class is one of four equal images of a canonical class,
    so every sum is four times its canonical value.  In a canonical
    class each of r1, r2, c1, c2 determines the member, so a pair of
    distinct members shares a row exactly when r1' = r2 (event E1) or
    r2' = r1 (E2), and a column exactly when c1' = c2 (F1) or c2' = c1
    (F2).  E2 and F2 are the transposes of E1 and F1, and the pairs
    sharing a row or column are the union of the four.
    """
    _, cls, sizes = np.unique(
        _canonical_keys(q, n), return_inverse=True, return_counts=True
    )
    sum_m = int(sizes.sum())
    sum_m2 = int((sizes.astype(np.int64) ** 2).sum())
    # singleton classes have no pair besides the diagonal
    multi = sizes[cls] > 1
    cls = cls[multi]
    R1, R2, C1, C2 = _canonical(q[:, multi])
    m = len(cls)
    e_i, e_j = _partners(cls, R1, R2, n)
    f_i, f_j = _partners(cls, C1, C2, n)
    # counted on a sort, many times faster than a bare np.unique
    sharing = np.sort(np.concatenate(
        (e_i * m + e_j, e_j * m + e_i, f_i * m + f_j, f_j * m + f_i)
    ))
    shared = len(sharing) and 1 + int(np.count_nonzero(np.diff(sharing)))
    return 4 * sum_m, 4 * sum_m2, 4 * (sum_m2 - sum_m - shared)


def count_cuboctahedra_nondegenerate(obj) -> int:
    """Same-pattern quadruple pairs with 4 distinct rows, columns, symbols."""
    cells = _cells_of(obj)
    q = _proper_quadruples(cells, _column_pairs(cells))
    return _distinct_class_sums(q[:, _distinct_symbols(q)], cells[3])[2]


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

    q = _proper_quadruples(cells, col_pairs)
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

    q = q[:, distinct]  # frees the full record array before the peak step
    sum_m, sum_m2, nondeg = _distinct_class_sums(q, n)
    out["same-2x2-distinct-symbols"] = sum_m
    out["row-or-column-sharing"] = sum_m2 - sum_m - nondeg

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
    n = square.n
    if not 2 <= k <= 4:
        raise InputError("supported subsquare orders are 2, 3, 4")
    if n > 40:
        raise InputError("subsquare counting is desk-capped at n <= 40")
    if k == 2:
        return count_intercalates(square)
    g = square.grid.astype(np.intp)
    pos = np.argsort(g, axis=1)  # pos[row, symbol] = column

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
    strictly sparser, i.e. the girth exceeds g_max.  The search lists
    every connected triple set whose least member is the root exactly
    once (Wernicke's ESU enumeration, with triples as the nodes and a
    shared vertex as the edge), so no set of visited states is kept.  A
    state is its member count, the bitmask of the vertices it spans and
    its extension list.  Vertex counts only grow along a branch, so a
    triple that would take the span past g_max, or to the best girth
    found so far, is skipped, and a set spanning |members| + 2 vertices
    is recorded and not extended.  Systems need not be Latin, but a
    coordinate outside range(n) raises InputError.
    """
    if isinstance(obj, (LatinSquare, LatinRectangle)):
        obj = to_triples(obj)
    if not isinstance(obj, TripleSystem):
        raise TypeError(f"girth undefined for {type(obj).__name__}")
    if g_max > 12:
        raise InputError("girth search is desk-capped at g_max <= 12")
    n = obj.n
    # vertex ids r, n + c, 2n + s are the bit positions; an entry outside
    # range(n), which a TripleSystem keeps, would alias another part
    for t in obj.triples:
        if not all(0 <= x < n for x in t):
            raise InputError(f"coordinate out of range in {t}")
    tris = [(r, n + c, 2 * n + s) for r, c, s in obj.triples]
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in tris]
    incident: list[list[int]] = [[] for _ in range(3 * n)]
    for t, tri in enumerate(tris):
        for v in tri:
            incident[v].append(t)

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
                continue
            child = ext.copy()
            extend(child, root, w, spanned)
            grow(size + 1, nv, child, root)

    for root in range(len(tris)):
        if best == 4:
            break
        ext: list[int] = []
        extend(ext, root, root, 0)
        grow(1, masks[root], ext, root)
    return best


# ---------------------------------------------------------------------------
# configuration counting


@dataclass(frozen=True)
class ColoredTripleSystem:
    """Small configuration: parts of sizes (h1, h2, h3), triples one
    vertex per part, given as class-local indices."""

    parts: tuple[int, int, int]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        h1, h2, h3 = self.parts
        for e in self.edges:
            i, j, k = e
            if not (0 <= i < h1 and 0 <= j < h2 and 0 <= k < h3):
                raise InputError(f"edge {e} escapes parts {self.parts}")
        if len(set(self.edges)) != len(self.edges):
            raise InputError("repeated edge")

    def order(self) -> int:
        return sum(self.parts)


def intercalate_configuration() -> ColoredTripleSystem:
    return ColoredTripleSystem(
        (2, 2, 2),
        ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)),
    )


def cuboctahedron_configuration() -> ColoredTripleSystem:
    """Nondegenerate cuboctahedron: 12 vertices, 8 triples.  Symbol
    vertices are shared between the two quadruples; rows and columns are
    not."""
    edges = []
    for block in (0, 2):  # rows 0,1 vs 2,3; columns likewise
        for i in (0, 1):
            for j in (0, 1):
                edges.append((block + i, block + j, 2 * i + j))
    return ColoredTripleSystem((4, 4, 4), tuple(edges))


def count_configuration(config: ColoredTripleSystem, host) -> int:
    """Labeled color-preserving embeddings of ``config`` into ``host``.

    Vertices map injectively within each class (rows to rows, columns to
    columns, symbols to symbols); every configuration triple must land on
    a host triple.  Isolated configuration vertices contribute falling
    factorials.
    """
    if isinstance(host, (LatinSquare, LatinRectangle)):
        host = to_triples(host)
    if not isinstance(host, TripleSystem):
        raise TypeError(f"cannot embed into {type(host).__name__}")
    if config.order() > 14 or len(config.edges) > 10:
        raise InputError("configuration too large (desk cap: 14 vertices, 10 edges)")
    n = host.n
    triples = host.triples
    by_r: dict[int, list] = {}
    by_c: dict[int, list] = {}
    by_s: dict[int, list] = {}
    for tr in triples:
        by_r.setdefault(tr[0], []).append(tr)
        by_c.setdefault(tr[1], []).append(tr)
        by_s.setdefault(tr[2], []).append(tr)
    tripleset = set(triples)
    by_rc, by_rs, by_cs = host.by_rc, host.by_rs, host.by_cs

    h1, h2, h3 = config.parts
    assign: list[list[int | None]] = [[None] * h1, [None] * h2, [None] * h3]
    used: list[set[int]] = [set(), set(), set()]
    edges = list(config.edges)

    in_some_edge = [{e[cls] for e in edges} for cls in range(3)]

    def candidates(edge):
        i, j, k = edge
        mi, mj, mk = assign[0][i], assign[1][j], assign[2][k]
        known = (mi is not None, mj is not None, mk is not None)
        if all(known):
            return [(mi, mj, mk)] if (mi, mj, mk) in tripleset else []
        if known == (True, True, False):
            s = by_rc.get((mi, mj))
            return [(mi, mj, s)] if s is not None else []
        if known == (True, False, True):
            c = by_rs.get((mi, mk))
            return [(mi, c, mk)] if c is not None else []
        if known == (False, True, True):
            r = by_cs.get((mj, mk))
            return [(r, mj, mk)] if r is not None else []
        if known == (True, False, False):
            return by_r.get(mi, [])
        if known == (False, True, False):
            return by_c.get(mj, [])
        if known == (False, False, True):
            return by_s.get(mk, [])
        return triples

    def known_count(edge):
        return sum(assign[cls][v] is not None for cls, v in enumerate(edge))

    def extend(remaining):
        if not remaining:
            ways = 1
            for cls in range(3):
                free = config.parts[cls] - len(in_some_edge[cls])
                avail = n - len(used[cls])
                for t in range(free):
                    ways *= avail - t
            return ways
        edge = max(remaining, key=known_count)
        rest = [e for e in remaining if e is not edge]
        total = 0
        i, j, k = edge
        for tr in candidates(edge):
            newly = []
            ok = True
            for cls, hvert, hostv in ((0, i, tr[0]), (1, j, tr[1]), (2, k, tr[2])):
                cur = assign[cls][hvert]
                if cur is None:
                    if hostv in used[cls]:
                        ok = False
                        break
                    assign[cls][hvert] = hostv
                    used[cls].add(hostv)
                    newly.append((cls, hvert, hostv))
                elif cur != hostv:
                    ok = False
                    break
            if ok:
                total += extend(rest)
            for cls, hvert, hostv in newly:
                assign[cls][hvert] = None
                used[cls].discard(hostv)
        return total

    return extend(edges)
