"""Sequential random construction of partial Latin squares.

The removal process fills an empty n x n square one triple at a time,
each step choosing uniformly among the triples (r, c, s) that are still
*available*: cell empty, symbol unused in the row and in the column.
With the girth constraint switched on (girth = 6), a triple is also
required to be *safe*: placing it must not complete an intercalate with
three triples already present, which keeps the girth of the partial
system above 6 for the whole run.

Safety is tracked through a danger table, kept as three bitmask
projections of the triples made dangerous while available:
``dsyms[r][c]`` (symbols), ``dcols[r][s]`` (columns) and ``drows[c][s]``
(rows).  Every entry sets one bit in each, so any one of them answers
"is (r, c, s) dangerous?".  Placing T = (r, c, s) creates a
near-intercalate for every partner T' sharing its row or column, and
each partner can complete only one corner: a row partner (r, c2, s2)
whose column holds no s makes T the opposite corner of (r3, c2, s) with
(r3, c, s2) present; one whose column holds s at row r3 makes T the side
cell of (r3, c, s2); a column partner (r2, c, s2) whose row holds s at
c3 makes T the symbol-matching cell of (r, c3, s2).  Each scan adds the
completing triple if it is still available and not already dangerous,
and tells the cases apart by the masks ``sym_cols[s]`` and
``sym_rows[s]`` from before the placement.  The opposite-corner scan
walks the filled columns c2 of row r outside ``sym_cols[s]``.  The other
two walk symbols: the side-cell scan takes s2 in ``row_syms[r] &
~col_syms[c]``, its partner column c2 = ``col_of[r][s2]``, and skips it
unless c2 is in ``sym_cols[s]``; the symbol-matching scan takes s2 in
``col_syms[c] & ~row_syms[r]``, its partner row r2 = ``row_of[c][s2]``,
and skips it unless r2 is in ``sym_rows[s]``.  Filled cells of a line and
the symbols it holds correspond one to one, so these walks reach the
same partners as walks over ``row_cols[r] & sym_cols[s]`` and
``col_rows[c] & sym_rows[s]``, minus exactly those whose completing
symbol s2 is already in column c (side cell) or row r (symbol-matching
cell): the completing triple (r3, c, s2) or (r, c3, s2) is then
unavailable, and the column walk rejected those partners by the same
test.  The triples added, the danger bits and the weights are therefore
the same; only the order of the additions differs, and no triple is
added twice.  Without the constraint the table stays empty and every
available triple is safe.

Two weight tables are kept exactly beside it: ``w[r][c]``, the number
of safe available symbols of cell (r, c), and ``roww[r]``, the sum of
row r of ``w``; the safe count is the sum of ``roww``.  A placement
removes its own cell, the (r, c2, s) for the free columns c2 and the
(r2, c, s) for the free rows r2, and only the free columns and rows
outside the danger masks ``dcols[r][s]`` and ``drows[c][s]`` cost their
cell one weight.  A new danger entry on an available triple costs its
cell one as well.  A step draws one k uniform in [0, safe count) and
maps it to a triple: the row and then the cell by subtracting ``roww``
and then ``w[r]`` from k until it falls inside one entry (a Python loop
that stops early costs less than building the running sums), the symbol
as entry k of the ascending list of the cell's free symbols outside
``dsyms``.  The map is a bijection onto the safe set, so each step is
exactly uniform at O(n) cost.

Every walk over a mask (the weight updates, the three scans, the symbol
pick and ``safe_candidates``) goes through ``set_bits``, which reads the
mask a byte at a time and looks each nonzero byte up in a table of its
absolute bit indices, built once per byte count by ``byte_tables``.

The expected trajectory of the safe count is

    A(t) = n^3 (1 - t/n^2)^3 exp(-t^3/n^6),

the product of the pair-survival factor cubed and the intercalate
discount; without the constraint the exponential factor is absent.  Over
a full run the per-cell log-availability sum approaches
3 log n - 13/4, which is the enumeration exponent driving counting
applications, and ``log_density_target`` returns it.

``sample_sparse_system`` and ``collision_filter`` build the Bernoulli
random triple system and its Latinized subsystem: every triple agreeing
with another in two coordinates is deleted, simultaneously, so the
survivors form a partial Latin square whose small-structure statistics
are predictable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import InputError, TripleSystem
from .rng import RandomStream


@dataclass(frozen=True)
class ProcessConfig:
    girth: int = 0              # 0 (unconstrained) or 6
    max_steps: int | None = None


@dataclass
class ProcessResult:
    n: int
    girth: int
    steps: int
    stalled: bool
    placed: TripleSystem
    order: np.ndarray            # (steps, 3) placements in the order made
    trace: np.ndarray            # safe-candidate count before each step
    available_trace: np.ndarray  # plain available count before each step

    @property
    def coverage(self) -> float:
        return self.steps / self.n**2

    def log_density(self) -> float:
        """(1/n^2) sum of log candidate counts over the run."""
        return float(np.log(self.trace.astype(float)).sum()) / self.n**2

    def model_log_density(self) -> float:
        """(1/n^2) sum of log predicted_available over the run's steps:
        the model integrated over the same steps as log_density."""
        return sum(math.log(predicted_available(self.n, t, self.girth))
                   for t in range(self.steps)) / self.n**2


def predicted_available(n: int, t: float, girth: int = 6) -> float:
    """Model trajectory A(t); girth < 6 drops the intercalate discount."""
    x = t / n**2
    base = n**3 * (1.0 - x) ** 3
    if girth >= 6:
        base *= math.exp(-(x**3))
    return base


def log_density_target(n: int) -> float:
    """Full-run limit of ProcessResult.log_density for the girth-6 process."""
    return 3.0 * math.log(n) - 13.0 / 4.0


@cache
def byte_tables(nbytes: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Lookup tables for ``set_bits`` on masks of ``nbytes`` bytes: entry
    [j][v] holds the absolute indices 8 j + i of the set bits i of byte
    value v at byte position j.  Built once per byte count."""
    in_byte = [tuple(i for i in range(8) if v >> i & 1) for v in range(256)]
    return tuple(tuple(tuple(8 * j + i for i in bits) for bits in in_byte)
                 for j in range(nbytes))


def set_bits(mask: int, tables) -> list[int]:
    """The set bits of a nonnegative mask, ascending, read a byte at a
    time through ``byte_tables`` of a byte count the mask fits in."""
    out: list[int] = []
    for table, byte in zip(tables, mask.to_bytes(len(tables), "little")):
        if byte:
            out += table[byte]
    return out


class ProcessState:
    """Mutable fill state with exact availability, danger and weights."""

    def __init__(self, n: int, girth: int = 0):
        if n < 1:
            raise InputError("order must be positive")
        if girth not in (0, 6):
            raise InputError("girth constraint must be 0 or 6")
        self.n = n
        self.girth = girth
        self.full = (1 << n) - 1
        self.tables = byte_tables((n + 7) // 8)
        self.cell = [[-1] * n for _ in range(n)]
        self.col_of = [[-1] * n for _ in range(n)]   # [r][s] -> column
        self.row_of = [[-1] * n for _ in range(n)]   # [c][s] -> row
        self.row_syms = [0] * n    # symbols present in row r
        self.col_syms = [0] * n
        self.row_cols = [0] * n    # filled columns of row r
        self.col_rows = [0] * n
        self.sym_cols = [0] * n    # columns containing symbol s
        self.sym_rows = [0] * n
        # triples made dangerous while available, projected three ways
        self.dsyms = [[0] * n for _ in range(n)]   # [r][c] -> symbols
        self.dcols = [[0] * n for _ in range(n)]   # [r][s] -> columns
        self.drows = [[0] * n for _ in range(n)]   # [c][s] -> rows
        self.w = [[n] * n for _ in range(n)]   # [r][c] -> safe symbols
        self.roww = [n * n] * n                # sum of w[r]
        self.available = n**3
        self.steps = 0

    # -- predicates ---------------------------------------------------------

    def is_available(self, r: int, c: int, s: int) -> bool:
        return (
            self.cell[r][c] < 0
            and not ((self.row_syms[r] | self.col_syms[c]) >> s) & 1
        )

    @property
    def safe_count(self) -> int:
        return sum(self.roww)

    # -- the update ---------------------------------------------------------

    def place(self, r: int, c: int, s: int) -> None:
        if not self.is_available(r, c, s):
            raise ValueError(f"triple ({r},{c},{s}) is not available")
        full, w, roww, tables = self.full, self.w, self.roww, self.tables
        dsyms, dcols, drows = self.dsyms, self.dcols, self.drows
        if (dsyms[r][c] >> s) & 1:
            raise ValueError(f"triple ({r},{c},{s}) would complete an "
                             "intercalate")
        row_syms, col_syms = self.row_syms, self.col_syms
        row_cols, col_rows = self.row_cols[r], self.col_rows[c]
        sym_cols, sym_rows = self.sym_cols[s], self.sym_rows[s]
        free_syms = ~(row_syms[r] | col_syms[c]) & full
        free_cols = ~(row_cols | sym_cols | 1 << c) & full
        free_rows = ~(col_rows | sym_rows | 1 << r) & full
        self.available -= (
            free_syms.bit_count() + free_cols.bit_count() + free_rows.bit_count()
        )
        # the safe triples that become unavailable each cost their cell one
        wr = w[r]
        roww[r] -= wr[c]
        wr[c] = 0
        m = free_cols & ~dcols[r][s]
        roww[r] -= m.bit_count()
        for c2 in set_bits(m, tables):
            wr[c2] -= 1
        for r2 in set_bits(free_rows & ~drows[c][s], tables):
            w[r2][c] -= 1
            roww[r2] -= 1

        cell, col_of, row_of = self.cell, self.col_of, self.row_of
        cell[r][c] = s
        col_of[r][s] = c
        row_of[c][s] = r
        row_syms[r] |= 1 << s
        col_syms[c] |= 1 << s
        self.row_cols[r] = row_cols | 1 << c
        self.col_rows[c] = col_rows | 1 << r
        self.sym_cols[s] = sym_cols | 1 << c
        self.sym_rows[s] = sym_rows | 1 << r
        self.steps += 1
        if not self.girth:
            return

        # near-intercalates created by the new triple: each partner sharing
        # its row or column completes at most one corner, told apart by
        # whether the partner's line held s before this placement
        # (``sym_cols`` and ``sym_rows`` are the masks from before it)
        cellr = cell[r]
        for c2 in set_bits(row_cols & ~sym_cols, tables):
            # the new triple is the opposite corner
            r3 = row_of[c][cellr[c2]]
            if (r3 >= 0 and cell[r3][c2] < 0
                    and not ((row_syms[r3] | col_syms[c2] | dsyms[r3][c2])
                             >> s) & 1):
                dsyms[r3][c2] |= 1 << s
                dcols[r3][s] |= 1 << c2
                drows[c2][s] |= 1 << r3
                w[r3][c2] -= 1
                roww[r3] -= 1
        col_of_r = col_of[r]
        for s2 in set_bits(row_syms[r] & ~col_syms[c], tables):
            # the new triple is the side cell, partner (r, c2, s2)
            c2 = col_of_r[s2]
            if not (sym_cols >> c2) & 1:
                continue
            r3 = row_of[c2][s]
            if (cell[r3][c] < 0
                    and not ((row_syms[r3] | dsyms[r3][c]) >> s2) & 1):
                dsyms[r3][c] |= 1 << s2
                dcols[r3][s2] |= 1 << c
                drows[c][s2] |= 1 << r3
                w[r3][c] -= 1
                roww[r3] -= 1
        row_of_c = row_of[c]
        for s2 in set_bits(col_syms[c] & ~row_syms[r], tables):
            # the new triple is the symbol-matching cell, partner (r2, c, s2)
            r2 = row_of_c[s2]
            if not (sym_rows >> r2) & 1:
                continue
            c3 = col_of[r2][s]
            if (cellr[c3] < 0
                    and not ((col_syms[c3] | dsyms[r][c3]) >> s2) & 1):
                dsyms[r][c3] |= 1 << s2
                dcols[r][s2] |= 1 << c3
                drows[c3][s2] |= 1 << r
                w[r][c3] -= 1
                roww[r] -= 1

    # -- candidate selection ------------------------------------------------

    def triple_at(self, k: int) -> tuple[int, int, int]:
        """The k-th safe available triple, 0 <= k < safe_count, in the
        (row, column, symbol) order of ``safe_candidates``."""
        r, k = _locate(self.roww, k)
        c, k = _locate(self.w[r], k)
        free = ~(self.row_syms[r] | self.col_syms[c] | self.dsyms[r][c])
        syms = set_bits(free & self.full, self.tables)
        if k >= len(syms):
            raise AssertionError(f"cell ({r},{c}) has fewer safe symbols than w")
        return r, c, syms[k]

    def safe_candidates(self) -> list[tuple[int, int, int]]:
        """Every safe available triple, enumerated directly."""
        full, dsyms, tables = self.full, self.dsyms, self.tables
        return [
            (r, c, s)
            for r in range(self.n)
            for c in set_bits(~self.row_cols[r] & full, tables)
            for s in set_bits(
                ~(self.row_syms[r] | self.col_syms[c] | dsyms[r][c]) & full,
                tables)
        ]


def _locate(weights: list[int], k: int) -> tuple[int, int]:
    """The index i holding unit k of the weights, and k's offset within it."""
    if k >= 0:
        offset, i = k, 0
        for x in weights:
            if offset < x:
                return i, offset
            offset -= x
            i += 1
    raise IndexError(f"k = {k} is not in [0, {sum(weights)})")


def run_process(
    n: int, rng: RandomStream, config: ProcessConfig | None = None
) -> ProcessResult:
    """Run the process to stall (or max_steps) and record exact counts."""
    cfg = config or ProcessConfig()
    if cfg.max_steps is not None and cfg.max_steps < 0:
        raise InputError(f"step cap must be nonnegative, not {cfg.max_steps}")
    state = ProcessState(n, cfg.girth)
    limit = n * n if cfg.max_steps is None else min(cfg.max_steps, n * n)
    trace: list[int] = []
    avail_trace: list[int] = []
    order: list[tuple[int, int, int]] = []
    randrange = rng.randrange
    stalled = False
    while state.steps < limit:
        safe = state.safe_count
        if safe <= 0:
            stalled = True
            break
        trace.append(safe)
        avail_trace.append(state.available)
        triple = state.triple_at(randrange(safe))
        state.place(*triple)
        order.append(triple)
    made = np.array(order, dtype=np.int64).reshape(-1, 3)
    return ProcessResult(
        n=n,
        girth=cfg.girth,
        steps=state.steps,
        stalled=stalled,
        placed=TripleSystem.from_array(n, made),
        order=made,
        trace=np.array(trace, dtype=np.int64),
        available_trace=np.array(avail_trace, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Bernoulli triple systems and the collision filter


def sample_sparse_system(n: int, alpha: float, rng: RandomStream) -> TripleSystem:
    """Each of the n^3 triples kept independently with probability alpha/n.

    The result is generally not a partial Latin square; see
    ``collision_filter``.
    """
    p = alpha / n
    if not 0 <= p <= 1:
        raise InputError(f"alpha/n = {p} is not a probability")
    gen = rng.generator
    # the Bernoulli product measure, drawn exactly: a binomial size, then
    # that many distinct triples uniformly; sorted indices decode to
    # triples in sorted order
    idx = np.sort(gen.choice(n**3, size=gen.binomial(n**3, p), replace=False))
    r, rem = np.divmod(idx, n * n)
    c, s = np.divmod(rem, n)
    return TripleSystem.from_array(n, np.stack((r, c, s), axis=1))


def collision_filter(ts: TripleSystem) -> TripleSystem:
    """Delete, simultaneously, every triple that agrees with another in
    at least two coordinates.  The survivors form a partial Latin square.
    A coordinate outside range(n) raises InputError, as its key r n + c
    would alias another pair's."""
    if len(ts) == 0:
        return ts
    arr, n = ts.array, ts.n
    if arr.min() < 0 or arr.max() >= n:
        t = arr[np.argmax(((arr < 0) | (arr >= n)).any(axis=1))]
        raise InputError(f"coordinate out of range in {tuple(t.tolist())}")
    keep = np.ones(len(arr), dtype=bool)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        key = arr[:, i] * n + arr[:, j]
        keep &= np.bincount(key)[key] == 1
    return TripleSystem.from_array(n, arr[keep])
