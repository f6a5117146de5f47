"""Core types: Latin squares and rectangles, triple systems, tripartite graphs.

An order-n Latin square is held as a dense n x n array over symbols
0..n-1 (bytes when n <= 256, words above).  The triple-system view of the
same object is the set of n^2 triples (r, c, s) with L[r][c] = s; a
*partial* Latin square is any triple set in which no two triples agree in
two coordinates.  Triples double as the triangles of a tripartite graph
on parts R, C, S, which is the representation the decomposition and
absorber modules work with.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def _grid_dtype(n: int):
    return np.uint8 if n <= 256 else np.uint32


def _as_grid(values: np.ndarray, n: int) -> np.ndarray:
    """The read-only grid, after checking every symbol is in 0..n-1."""
    if values.size and (values.min() < 0 or values.max() >= n):
        i, j = np.argwhere((values < 0) | (values >= n))[0]
        raise InputError(
            f"symbol {values[i, j]} out of range at ({int(i)}, {int(j)})")
    g = np.asarray(values, dtype=_grid_dtype(n))
    g = np.ascontiguousarray(g)
    g.flags.writeable = False
    return g


class InputError(ValueError):
    """A caller-supplied value, parameter or file content is rejected.

    The command line exits with 2 on it; any other exception is a fault
    of the program and exits with 1.
    """


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    message: str = "ok"
    where: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


class LatinSquare:
    """Complete order-n Latin square over symbols 0..n-1."""

    __slots__ = ("n", "grid")

    def __init__(self, grid):
        g = np.asarray(grid)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"square grid required, got shape {g.shape}")
        n = int(g.shape[0])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "grid", _as_grid(g, n))

    def __setattr__(self, *a):  # immutable by convention, grid is read-only
        raise AttributeError("LatinSquare is immutable")

    def __eq__(self, other):
        return isinstance(other, LatinSquare) and np.array_equal(self.grid, other.grid)

    def __hash__(self):
        return hash((self.n, self.grid.tobytes()))

    def __repr__(self):
        return f"LatinSquare(n={self.n})"

    def key(self) -> bytes:
        return self.grid.tobytes()


class LatinRectangle:
    """k x n array whose rows are permutations and whose columns repeat no symbol."""

    __slots__ = ("k", "n", "grid")

    def __init__(self, grid):
        g = np.asarray(grid)
        if g.ndim != 2:
            raise ValueError(f"2-d grid required, got shape {g.shape}")
        k, n = (int(g.shape[0]), int(g.shape[1]))
        if k > n:
            raise ValueError(f"rectangle needs k <= n, got {k} x {n}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "grid", _as_grid(g, n))

    def __setattr__(self, *a):
        raise AttributeError("LatinRectangle is immutable")

    def __eq__(self, other):
        return isinstance(other, LatinRectangle) and np.array_equal(
            self.grid, other.grid
        )

    def __hash__(self):
        return hash((self.k, self.n, self.grid.tobytes()))

    def __repr__(self):
        return f"LatinRectangle(k={self.k}, n={self.n})"


class TripleSystem:
    """Partial Latin square as a sorted set of distinct (row, column,
    symbol) triples.

    The set has two views, each built from the other on first use and
    then cached: ``triples``, a tuple of int tuples, and ``array``, a
    read-only m x 3 int64 array with the rows in the same order.  The
    constructor takes any iterable of triples, with Python ints of any
    size; ``from_array`` takes an integer array and stays in numpy, so a
    system built from an array holds no tuples until ``triples`` is read.
    """

    __slots__ = ("n", "_triples", "_array")

    def __init__(self, n: int, triples: Iterable[tuple[int, int, int]]):
        ts = tuple(sorted({(int(r), int(c), int(s)) for r, c, s in triples}))
        self._init(n, ts, None)

    @classmethod
    def from_array(cls, n: int, arr) -> "TripleSystem":
        """The system of the rows of an m x 3 integer array, sorted and
        with repeated rows dropped.  Out-of-range rows are kept, for
        ``validate`` to report.  Rows already in strictly increasing
        order skip the sort."""
        a = np.asarray(arr)
        if a.size == 0:
            a = np.empty((0, 3), dtype=np.int64)
        elif a.ndim != 2 or a.shape[1] != 3:
            raise ValueError(f"m x 3 array required, got shape {a.shape}")
        a = a.astype(np.int64, casting="safe")
        if not _increasing(a):
            a = a[np.lexsort(a.T[::-1])]
            a = a[np.concatenate(([True], (a[1:] != a[:-1]).any(axis=1)))]
        a.flags.writeable = False
        ts = cls.__new__(cls)
        ts._init(n, None, a)
        return ts

    def _init(self, n, triples, array):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "_triples", triples)
        object.__setattr__(self, "_array", array)

    def __setattr__(self, *a):
        raise AttributeError("TripleSystem is immutable")

    @property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        if self._triples is None:
            object.__setattr__(self, "_triples",
                               tuple(map(tuple, self._array.tolist())))
        return self._triples

    @property
    def array(self) -> np.ndarray:
        """The triples as a read-only m x 3 int64 array; coordinates
        beyond int64 raise OverflowError."""
        if self._array is None:
            arr = np.array(self._triples, dtype=np.int64).reshape(-1, 3)
            arr.flags.writeable = False
            object.__setattr__(self, "_array", arr)
        return self._array

    def __len__(self):
        return len(self._triples if self._array is None else self._array)

    def __eq__(self, other):
        return (
            isinstance(other, TripleSystem)
            and self.n == other.n
            and self.triples == other.triples
        )

    def __hash__(self):
        return hash((self.n, self.triples))

    def __repr__(self):
        return f"TripleSystem(n={self.n}, m={len(self)})"

    def cell_grid(self) -> np.ndarray:
        """n x n int matrix of symbols, -1 on empty cells."""
        g = np.full((self.n, self.n), -1, dtype=np.int32)
        r, c, s = self.array.T
        g[r, c] = s
        return g


def _increasing(a: np.ndarray) -> bool:
    """Whether the rows strictly increase in lexicographic order."""
    lt, eq = a[:-1] < a[1:], a[:-1] == a[1:]
    return bool((lt[:, 0] | eq[:, 0] & (lt[:, 1] | eq[:, 1] & lt[:, 2])).all())


class TripartiteGraph:
    """Graph on parts V1, V2, V3 with edges only between distinct parts.

    Adjacency is three dense boolean matrices; ``adj12[u, v]`` is the edge
    between u in V1 and v in V2, and so on cyclically.
    """

    __slots__ = ("parts", "adj12", "adj23", "adj31")

    def __init__(self, parts: Sequence[int], edges_12=(), edges_23=(), edges_31=()):
        n1, n2, n3 = (int(x) for x in parts)
        object.__setattr__(self, "parts", (n1, n2, n3))
        object.__setattr__(self, "adj12", _adjacency(n1, n2, edges_12))
        object.__setattr__(self, "adj23", _adjacency(n2, n3, edges_23))
        object.__setattr__(self, "adj31", _adjacency(n3, n1, edges_31))

    @classmethod
    def from_adjacency(cls, adj12, adj23, adj31) -> "TripartiteGraph":
        g = cls.__new__(cls)
        a12 = np.ascontiguousarray(np.asarray(adj12, dtype=bool))
        a23 = np.ascontiguousarray(np.asarray(adj23, dtype=bool))
        a31 = np.ascontiguousarray(np.asarray(adj31, dtype=bool))
        if a12.shape[1] != a23.shape[0] or a23.shape[1] != a31.shape[0] \
                or a31.shape[1] != a12.shape[0]:
            raise ValueError("inconsistent adjacency shapes")
        for a in (a12, a23, a31):
            a.flags.writeable = False
        object.__setattr__(g, "parts", (a12.shape[0], a12.shape[1], a23.shape[1]))
        object.__setattr__(g, "adj12", a12)
        object.__setattr__(g, "adj23", a23)
        object.__setattr__(g, "adj31", a31)
        return g

    def __setattr__(self, *a):
        raise AttributeError("TripartiteGraph is immutable")

    def edge_count(self) -> int:
        return int(self.adj12.sum() + self.adj23.sum() + self.adj31.sum())

    def __eq__(self, other):
        return (
            isinstance(other, TripartiteGraph)
            and self.parts == other.parts
            and np.array_equal(self.adj12, other.adj12)
            and np.array_equal(self.adj23, other.adj23)
            and np.array_equal(self.adj31, other.adj31)
        )

    def __repr__(self):
        return f"TripartiteGraph(parts={self.parts}, edges={self.edge_count()})"


def _adjacency(rows: int, cols: int, edges) -> np.ndarray:
    a = np.zeros((rows, cols), dtype=bool)
    edges = list(edges)
    if edges:
        try:
            pairs = np.array(edges)
        except ValueError:  # ragged
            pairs = None
        # a tuple vertex would index a block of the matrix, not one entry
        if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2 \
                or not np.issubdtype(pairs.dtype, np.integer):
            raise InputError(
                f"edges must be pairs of integer vertices, got {edges!r:.60}")
        u, v = pairs[:, 0], pairs[:, 1]
        bad = (u < 0) | (u >= rows) | (v < 0) | (v >= cols)
        if bad.any():
            first = pairs[np.argwhere(bad)[0][0]].tolist()
            raise InputError(
                f"edge {first} outside parts of sizes {rows} and {cols}")
        a[u, v] = True
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# validation


def validate(obj) -> ValidityReport:
    """Check the defining invariants, reporting the first violation found.

    Squares and rectangles are checked as their triples, so the violation
    reported first is the first in sorted (row, column, symbol) order.
    """
    if isinstance(obj, (LatinSquare, LatinRectangle)):
        obj = to_triples(obj)
    if isinstance(obj, TripleSystem):
        return _validate_triples(obj)
    if isinstance(obj, TripartiteGraph):
        return ValidityReport(True)
    raise TypeError(f"cannot validate {type(obj).__name__}")


def _validate_triples(ts: TripleSystem) -> ValidityReport:
    """The first triple, in sorted order, that is out of range or repeats
    the cell, row symbol or column symbol of an earlier triple; checked
    in that order."""
    n = ts.n
    try:
        arr = ts.array
    except OverflowError:
        # past int64 is out of range anyway; clamping keeps it so
        arr = np.array([[min(max(x, -1), n) for x in t] for t in ts.triples],
                       dtype=np.int64)
    rows, cols, syms = arr.T
    # Keys of out-of-range triples may collide with in-range ones, but
    # such a triple is itself a violation and comes before any triple
    # it could wrongly flag.
    flags = np.stack(((arr < 0).any(axis=1) | (arr >= n).any(axis=1),
                      _repeats(rows * n + cols), _repeats(rows * n + syms),
                      _repeats(cols * n + syms)))
    hit = flags.any(axis=0)
    if not hit.any():
        return ValidityReport(True)
    i = int(np.argmax(hit))
    r, c, s = ts.triples[i]
    kind = int(np.argmax(flags[:, i]))
    if kind == 0:
        return ValidityReport(False, f"coordinate out of range in {(r, c, s)}",
                              (r, c, s))
    if kind == 1:
        return ValidityReport(False, f"cell ({r},{c}) holds two symbols", (r, c))
    if kind == 2:
        return ValidityReport(False, f"row {r} repeats symbol {s}", (r, s))
    return ValidityReport(False, f"column {c} repeats symbol {s}", (c, s))


def stable_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sorting permutation of integer ``keys`` and the keys in
    that order.  Keys in 0..2^16-1 are sorted as uint16, which numpy
    sorts by radix; equal keys keep their input order either way."""
    if len(keys) and keys.min() >= 0 and keys.max() < 2**16:
        keys = keys.astype(np.uint16)
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries whose key appears at an earlier index."""
    order, sk = stable_sort(keys)
    out = np.zeros(len(keys), dtype=bool)
    out[order[1:][sk[1:] == sk[:-1]]] = True
    return out


# ---------------------------------------------------------------------------
# constructions


def group_table(kind: str, order_param: int) -> LatinSquare:
    """Multiplication table of Z/nZ ('cyclic', param n) or (Z/2Z)^k
    ('elementary-abelian-2', param k, order 2^k)."""
    if kind == "cyclic":
        n = int(order_param)
        if n < 1:
            raise InputError("cyclic order must be >= 1")
        r = np.arange(n)
        return LatinSquare((r[:, None] + r[None, :]) % n)
    if kind == "elementary-abelian-2":
        k = int(order_param)
        if k < 0:
            raise InputError("exponent must be >= 0")
        n = 1 << k
        r = np.arange(n)
        return LatinSquare(r[:, None] ^ r[None, :])
    raise InputError(f"unknown group kind {kind!r}")


def to_triples(obj) -> TripleSystem:
    if isinstance(obj, (LatinSquare, LatinRectangle)):
        k = obj.grid.shape[0]
        n = obj.n
        rr, cc = np.meshgrid(np.arange(k), np.arange(n), indexing="ij")
        return TripleSystem.from_array(
            n, np.stack((rr.ravel(), cc.ravel(), obj.grid.ravel()), axis=1))
    raise TypeError(f"cannot view {type(obj).__name__} as triples")


def from_triples(ts: TripleSystem):
    """Rebuild the densest array the triples describe.

    A full n x n system becomes a LatinSquare; a system whose filled rows
    0..k-1 are each complete becomes a LatinRectangle.  Anything else is
    genuinely partial and stays a TripleSystem, which is an error here.
    """
    rep = validate(ts)
    if not rep:
        raise ValueError(f"not a partial Latin square: {rep.message}")
    n = ts.n
    grid = ts.cell_grid()
    filled_rows = [i for i in range(n) if (grid[i] >= 0).all()]
    if len(ts) == n * n:
        return LatinSquare(grid)
    if filled_rows == list(range(len(filled_rows))) and \
            len(ts) == len(filled_rows) * n:
        return LatinRectangle(grid[: len(filled_rows)])
    raise ValueError("triples do not fill a leading block of rows")


# ---------------------------------------------------------------------------
# text and JSON formats


def serialize_square(sq: LatinSquare) -> str:
    lines = [str(sq.n)]
    lines += [" ".join(str(int(x)) for x in row) for row in sq.grid]
    return "\n".join(lines) + "\n"


def serialize_rectangle(rect: LatinRectangle) -> str:
    lines = [f"{rect.k} {rect.n}"]
    lines += [" ".join(str(int(x)) for x in row) for row in rect.grid]
    return "\n".join(lines) + "\n"


def parse_grid(text: str):
    """Parse the grid format.

    Header 'n' gives an order-n square (or partial square when '.' cells
    appear); header 'k n' gives a k x n rectangle.  Returns LatinSquare,
    LatinRectangle, or TripleSystem accordingly.  Structures are checked.
    """
    numbered = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(i, ln) for i, ln in numbered if ln]
    if not lines:
        raise InputError("empty input")
    head_no, head_ln = lines[0]
    head = head_ln.split()
    try:
        if len(head) == 1:
            k = n = int(head[0])
        elif len(head) == 2:
            k, n = int(head[0]), int(head[1])
        else:
            raise ValueError
    except ValueError:
        raise InputError(f"line {head_no}: bad header {head_ln!r}") from None
    if n < 1:
        raise InputError(f"line {head_no}: order must be positive, got {n}")
    if not 1 <= k <= n:
        raise InputError(f"line {head_no}: need 1 <= k <= n, got {k} x {n}")
    if len(lines) != 1 + k:
        raise InputError(f"expected {k} rows, found {len(lines) - 1}")
    cells: list[list[int]] = []
    holes = False
    for no, ln in lines[1:]:
        row = []
        toks = ln.split()
        if len(toks) != n:
            raise InputError(
                f"line {no}: expected {n} entries per row, got {len(toks)}")
        for t in toks:
            if t == ".":
                row.append(-1)
                holes = True
            else:
                try:
                    v = int(t)
                except ValueError:
                    raise InputError(f"line {no}: bad cell {t!r}") from None
                if not 0 <= v < n:
                    raise InputError(f"line {no}: symbol {v} out of range")
                row.append(v)
        cells.append(row)
    if holes:
        if len(head) != 1:
            raise InputError("partial grids must be square (header 'n')")
        ts = TripleSystem(
            n,
            ((r, c, cells[r][c]) for r in range(n) for c in range(n)
             if cells[r][c] >= 0),
        )
        rep = validate(ts)
        if not rep:
            raise InputError(rep.message)
        return ts
    obj = LatinSquare(cells) if len(head) == 1 else LatinRectangle(cells)
    rep = validate(obj)
    if not rep:
        raise InputError(rep.message)
    return obj


def serialize_triples(ts: TripleSystem) -> str:
    lines = [str(ts.n)]
    lines += [f"{r} {c} {s}" for r, c, s in ts.triples]
    return "\n".join(lines) + "\n"


def parse_triples(text: str) -> TripleSystem:
    numbered = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(i, ln) for i, ln in numbered if ln]
    if not lines:
        raise InputError("empty input")
    head_no, head_ln = lines[0]
    try:
        n = int(head_ln)
    except ValueError:
        raise InputError(f"line {head_no}: bad header {head_ln!r}") from None
    if n < 1:
        raise InputError(f"line {head_no}: order must be positive, got {n}")
    triples = []
    for no, ln in lines[1:]:
        try:
            r, c, s = (int(t) for t in ln.split())
        except ValueError:
            raise InputError(f"line {no}: bad triple {ln!r}") from None
        triples.append((r, c, s))
    ts = TripleSystem(n, triples)
    if len(ts) != len(triples):
        raise InputError("duplicate triple in input")
    rep = validate(ts)
    if not rep:
        raise InputError(rep.message)
    return ts


def serialize_tripartite(g: TripartiteGraph) -> str:
    def pairs(adj):
        return [[int(u), int(v)] for u, v in zip(*np.nonzero(adj))]

    return json.dumps(
        {
            "parts": list(g.parts),
            "edges_12": pairs(g.adj12),
            "edges_23": pairs(g.adj23),
            "edges_31": pairs(g.adj31),
        }
    )


def parse_tripartite(text: str) -> TripartiteGraph:
    try:
        data = json.loads(text)
        return TripartiteGraph(
            data["parts"],
            edges_12=data.get("edges_12", ()),
            edges_23=data.get("edges_23", ()),
            edges_31=data.get("edges_31", ()),
        )
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise InputError(f"bad tripartite graph: {exc!r}") from exc
