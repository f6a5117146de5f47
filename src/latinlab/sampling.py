"""Random Latin squares and rectangles.

Squares come from the Jacobson-Matthews chain: a random walk on the
+-1 incidence cubes whose stationary distribution is uniform on proper
cubes, i.e. on Latin squares.  A move picks a zero cell of the cube (a
cell (r, c) and a symbol s not placed there), locates the three conflict
lines, and flips the 2 x 2 x 2 box they span; the result either stays
proper or leaves a single -1 entry, and from an improper state the move
is mirrored, choosing among the two +1 slots on each of the three lines
through the -1.  The cube is never materialized: three n x n occupancy
arrays plus one record for the improper triple carry the whole state
(``IncidenceCube``).  One module-level kernel, ``jm_run``, makes the
moves over those lists bound to locals, with no call or attribute write
per move.  Each move reads one 62-bit word of the chain's
``RandomStream`` block in place: a proper move splits it into the cell
(r, c) and the symbol s in mixed radix n, n, n - 1; an improper move
reads its three binary choices off bits 0, 1 and 2.

Rectangles are sampled by exact rejection, in numpy batches.  The map
L -> (L[0], N), where N is L with its columns reordered so that row 0
reads 0, 1, ..., n-1, is a bijection from k x n Latin rectangles onto
pairs of a permutation and a normalized rectangle, so a uniform
rectangle is N[:, pi] for a uniform permutation pi and an independent
uniform normalized N.  Rows 1..k-1 of N are drawn as independent uniform
derangements of row 0 (uniform permutations by Fisher-Yates,
``Generator.permuted``, each redrawn until it has no fixed point), and
the whole tuple is kept when no two random rows share a symbol in a
column.  A clash with the fixed row 0 depends on the new row alone, so
redrawing a row with a fixed point keeps it uniform on the derangements,
and Unif(D)^(k-1) conditioned on pairwise compatibility is the product
law of uniform permutations conditioned on the same event: uniform on
normalized rectangles.  The check is staged, row by row: a tuple is
dropped as soon as its newest row clashes with an earlier random row,
and later rows are drawn for the survivors only.  That changes the
cost, not the law, since the tuple is rejected whatever its later rows
are.  Redrawing just a row that clashes with an earlier *random* row
would bias the law.  Survivors are independent, so the first ones in
batch order are kept.  Acceptance tends to exp(-(k-1)(k-2)/2), and each
derangement costs about e permutations, so a rectangle costs about
(k-1) e^(1+(k-1)(k-2)/2) permutations of n: 2e^2 = 14.8 at k = 3,
3e^4 = 164 at k = 4, 4e^7 = 4400 at k = 5.  That keeps k <= 5 cheap at
desk sizes; from k = 6 on (5e^11, about 3 * 10^5 permutations a
rectangle) the sampler is practical only for a few rectangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InputError,
    LatinRectangle,
    LatinSquare,
    _grid_dtype,
    group_table,
)
from .rng import RandomStream


@dataclass(frozen=True)
class SamplerConfig:
    """Chain parameters in units of n^2 proper visits.

    A proper visit is a move that lands on a proper cube (a Latin
    square); ``IncidenceCube.proper_steps`` counts them.  About one move
    in n is a proper visit (0.94/n to 1.06/n for n = 5..32), so n^2
    visits cost about n^3 moves, and as many 62-bit words of the
    stream, one per move (``jm_run``).  Snapshots are the states at
    visits b, b + t, b + 2t, ... (b = burn-in, t = thinning).

    The defaults rest on ``autocorrelation_time`` of chains read every
    1 to 10 visits, never more than 0.01 n^2 apart.  For the
    intercalate count N, tau_int is 0.042-0.046 n^2 visits at n = 6,
    and 0.035, 0.020, 0.015, 0.013, 0.010, 0.009 n^2 at n = 8, 12, 16,
    20, 24, 32.  For the cuboctahedron total it is 0.028, 0.010, 0.008
    and at most 0.006 n^2 at n = 8, 16, 24, 32.  Thinning is 0.25 n^2,
    over five times the largest of these.  Started from the cyclic
    square, the mean over 64 chains of N settles within 0.12 n^2 visits
    (n = 9 and 21, whose cyclic squares have N = 0), and the mean over
    16-32 chains of the total, which starts 4-8 times too high, within
    0.06-0.1 n^2 (n = 16, 32).  Burn-in is 1 n^2, eight times longer.
    """

    burn_in_factor: float = 1.0
    thin_factor: float = 0.25

    def __post_init__(self):
        if not (self.burn_in_factor >= 0 and self.thin_factor > 0):
            raise InputError("need burn-in >= 0 and thinning > 0, got "
                             f"{self.burn_in_factor} and {self.thin_factor}")


class IncidenceCube:
    """Mutable Jacobson-Matthews state for one chain.

    ``S[r][c]``, ``R[c][s]``, ``C[r][s]`` give the symbol in a cell, the
    row holding s in a column, the column holding s in a row.  When the
    cube is improper, ``improper`` is (r, c, s, sym2, col2, row2): the
    -1 sits at (r, c, s); the second symbol of cell (r, c) is sym2, the
    second column of s in row r is col2, the second row of s in column c
    is row2 (the primary arrays hold the other member of each pair).
    ``moves`` and ``proper_steps`` count the moves made and the moves
    that landed on a proper cube; ``jm_run`` moves the state.
    """

    __slots__ = ("n", "S", "R", "C", "improper", "moves", "proper_steps")

    def __init__(self, square: LatinSquare):
        n = square.n
        if n < 2:
            raise InputError("chain needs n >= 2")
        self.n = n
        g = square.grid
        self.S = [[int(g[r, c]) for c in range(n)] for r in range(n)]
        self.R = [[0] * n for _ in range(n)]
        self.C = [[0] * n for _ in range(n)]
        for r in range(n):
            for c in range(n):
                s = int(g[r, c])
                self.R[c][s] = r
                self.C[r][s] = c
        self.improper = None
        self.moves = 0
        self.proper_steps = 0

    def snapshot(self) -> LatinSquare:
        if self.improper is not None:
            raise RuntimeError("cannot snapshot an improper state")
        return LatinSquare(np.array(self.S, dtype=np.int64))


def jm_run(cube: IncidenceCube, words: list[int], start: int,
           target: int) -> int:
    """Move ``cube`` one word at a time from ``words[start]`` until
    ``cube.proper_steps`` reaches ``target`` or the words run out, and
    return the index of the first word left unread.

    A move from a proper cube reads a word v as r = v % n,
    c = v // n % n and s = v // n^2 % (n - 1), the last skipping the
    symbol of cell (r, c); with v uniform below 2^62 the modulo bias is
    below n^3 / 2^62.  A move from an improper cube reads bits 0, 1 and
    2 of its word to pick the symbol, column and row of the box.

    While the run lasts, the improper record (r, c, s, sym2, col2,
    row2) and the lists S[r], C[r], R[c] through it are locals, and
    ``cube.improper`` is written once, on return.  Each move reads the
    next record's sym2, col2 and row2 straight into them (sym2 == s1:
    the box closed and the cube is proper), and the target is checked
    only on a proper landing, the one place ``proper_steps`` grows.
    """
    visits = cube.proper_steps
    if visits >= target:
        return start
    n = cube.n
    nm1 = n - 1
    S, R, C = cube.S, cube.R, cube.C
    proper = cube.improper is None
    if not proper:
        r, c, s, sym2, col2, row2 = cube.improper
        Sr, Cr, Rc = S[r], C[r], R[c]
    i, end = start, len(words)
    while i < end:
        v = words[i]
        i += 1
        if proper:
            r = v % n
            v //= n
            c = v % n
            s = v // n % nm1
            Sr, Cr, Rc = S[r], C[r], R[c]
            s1 = Sr[c]
            if s >= s1:
                s += 1
            r1 = Rc[s]
            c1 = Cr[s]
            fs, fc, fr = s, c, r
        else:
            if v & 1:
                s1, fs = sym2, Sr[c]
            else:
                s1, fs = Sr[c], sym2
            if v & 2:
                c1, fc = col2, Cr[s]
            else:
                c1, fc = Cr[s], col2
            if v & 4:
                r1, fr = row2, Rc[s]
            else:
                r1, fr = Rc[s], row2
        Sr1, Cr1, Rc1 = S[r1], C[r1], R[c1]
        sym2 = Sr1[c1]
        col2 = Cr1[s1]
        row2 = Rc1[s1]
        Sr[c] = fs
        Cr[s] = fc
        Rc[s] = fr
        Sr[c1] = s1
        Cr[s1] = c1
        Rc1[s1] = r
        Sr1[c] = s1
        Cr1[s1] = c
        Rc[s1] = r1
        Sr1[c1] = s
        Cr1[s] = c1
        Rc1[s] = r1
        if sym2 == s1:
            proper = True
            visits += 1
            if visits == target:
                break
        else:
            # the -1 moves to (r1, c1, s1)
            proper = False
            r, c, s = r1, c1, s1
            Sr, Cr, Rc = Sr1, Cr1, Rc1
    cube.moves += i - start
    cube.proper_steps = visits
    cube.improper = None if proper else (r, c, s, sym2, col2, row2)
    return i


def sample_squares(
    n: int, count: int, rng: RandomStream, config: SamplerConfig | None = None
) -> list[LatinSquare]:
    """``count`` squares from one chain started at the cyclic square.

    The chain watched only at its proper states is reversible with
    respect to the uniform law on Latin squares, so the states at fixed
    proper-visit counts carry no bias toward squares that follow long
    improper runs, as the first proper state after a move deadline does.
    """
    if count < 0:
        raise InputError(f"need count >= 0, got {count}")
    cfg = config or SamplerConfig()
    if n == 1:
        return [LatinSquare([[0]])] * count
    cube = IncidenceCube(group_table("cyclic", n))
    out = []
    target = int(cfg.burn_in_factor * n * n)
    thin = max(1, int(cfg.thin_factor * n * n))
    while len(out) < count:
        while cube.proper_steps < target:
            words, i = rng.block()
            rng.seek(jm_run(cube, words, i, target))
        out.append(cube.snapshot())
        target += thin
    return out


def autocorrelation_time(chains) -> float:
    """Sokal's windowed integrated autocorrelation time of a scalar.

    ``chains`` holds the series of one or more independent runs; rho(t)
    pools their lag-t products about the common mean.  The result is
    tau(W) = 1/2 + rho(1) + ... + rho(W) for the least W >= 5 tau(W), in
    units of the series' spacing: 1/2 for an uncorrelated series, nan
    for a constant one.
    """
    xs = [np.asarray(x, dtype=float) for x in chains]
    mean = np.concatenate(xs).mean()
    xs = [x - mean for x in xs]
    var = sum(float(x @ x) for x in xs) / sum(len(x) for x in xs)
    if var == 0:
        return float("nan")
    tau = 0.5
    for t in range(1, max(len(x) for x in xs)):
        lagged = [(x[:-t], x[t:]) for x in xs if len(x) > t]
        cov = (sum(float(a @ b) for a, b in lagged)
               / sum(len(a) for a, _ in lagged))
        tau += cov / var
        if t >= 5 * tau:
            break
    return tau


# candidate entries (batch rows x n) drawn at once, which keeps memory flat
_BATCH_ENTRIES = 1 << 16
# candidates drawn per rectangle asked for before sample_rectangles gives up
RECTANGLE_BUDGET = 1_000_000


def _derangements(gen: np.random.Generator, ident: np.ndarray,
                  m: int) -> np.ndarray:
    """``m`` independent uniform derangements of ``ident``, one per row:
    uniform permutations, with each row that has a fixed point redrawn
    until it has none."""
    out = gen.permuted(np.tile(ident, (m, 1)), axis=1)
    bad = np.flatnonzero((out == ident).any(axis=1))
    while len(bad):
        out[bad] = gen.permuted(np.tile(ident, (len(bad), 1)), axis=1)
        bad = bad[(out[bad] == ident).any(axis=1)]
    return out


def sample_rectangles(
    k: int, n: int, count: int, rng: RandomStream
) -> list[LatinRectangle]:
    """``count`` independent uniform k x n Latin rectangles, drawn by
    staged rejection in batches (see the module docstring).

    The budget is ``RECTANGLE_BUDGET`` candidates per rectangle asked
    for, a candidate being a tuple of k - 1 derangements of row 0 (the
    redraws that make a row a derangement are not counted): a call for
    ``count`` rectangles raises InputError after ``count *
    RECTANGLE_BUDGET`` candidates.  At acceptance about
    exp(-(k-1)(k-2)/2) that leaves k = 7, at about 3 * 10^6 candidates
    a rectangle, out of reach."""
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k} n={n}")
    if count < 0:
        raise InputError(f"need count >= 0, got {count}")
    gen = rng.generator
    ident = np.arange(n)
    cap = max(1, _BATCH_ENTRIES // n)
    # acceptance sizes the batch only; below 1/cap every batch is capped
    accept = max(math.exp(-(k - 1) * (k - 2) / 2), 1 / cap)
    budget = count * RECTANGLE_BUDGET
    out: list[LatinRectangle] = []
    while len(out) < count:
        need = count - len(out)
        b = min(cap, budget, math.ceil(need / accept))
        if b == 0:
            raise InputError(
                f"no {count} Latin rectangles at k={k}, n={n} within the "
                f"budget of {RECTANGLE_BUDGET} candidates per rectangle")
        budget -= b
        rows = np.broadcast_to(ident, (b, 1, n))
        for _ in range(1, k):
            new = _derangements(gen, ident, len(rows))
            ok = (new[:, None, :] != rows[:, 1:]).all(axis=(1, 2))
            rows = np.concatenate((rows[ok], new[ok, None, :]), axis=1)
        rows = rows[:need]
        pi = gen.permuted(np.tile(ident, (len(rows), 1)), axis=1)
        # one array in the grid dtype, so no rectangle copies its grid
        grids = np.take_along_axis(rows, pi[:, None, :], axis=2)
        out += map(LatinRectangle, grids.astype(_grid_dtype(n)))
    return out


def sample_rectangle(k: int, n: int, rng: RandomStream) -> LatinRectangle:
    """One uniform k x n Latin rectangle."""
    return sample_rectangles(k, n, 1, rng)[0]
