"""Random Latin squares and rectangles.

Squares come from the Jacobson-Matthews chain: a random walk on the
+-1 incidence cubes whose stationary distribution is uniform on proper
cubes, i.e. on Latin squares.  A move picks a zero cell of the cube (a
cell (r, c) and a symbol s not placed there), locates the three conflict
lines, and flips the 2 x 2 x 2 box they span; the result either stays
proper or leaves a single -1 entry, and from an improper state the move
is mirrored, choosing among the two +1 slots on each of the three lines
through the -1.  The cube is never materialized: three n x n occupancy
arrays plus one record for the improper triple carry the whole state.

Rectangles are sampled by exact rejection: k independent uniform row
permutations, accepted when no column repeats a symbol.  Acceptance
tends to exp(-k(k-1)/2), so this is practical for small k only, but the
output distribution is exactly uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError, LatinRectangle, LatinSquare, group_table
from .rng import RandomStream


@dataclass(frozen=True)
class SamplerConfig:
    """Chain parameters in units of n^3 moves.

    Snapshots are taken at the first proper state after each deadline;
    the proper fraction decays like 1/n, so deadlines count moves, not
    proper visits.
    """

    burn_in_factor: float = 10.0
    thin_factor: float = 1.0
    rectangle_budget: int = 1_000_000


class IncidenceCube:
    """Mutable Jacobson-Matthews state for one chain.

    ``S[r][c]``, ``R[c][s]``, ``C[r][s]`` give the symbol in a cell, the
    row holding s in a column, the column holding s in a row.  When the
    cube is improper, ``improper`` is (r, c, s, sym2, col2, row2): the
    -1 sits at (r, c, s); the second symbol of cell (r, c) is sym2, the
    second column of s in row r is col2, the second row of s in column c
    is row2 (the primary arrays hold the other member of each pair).
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

    def step(self, rng: RandomStream) -> bool:
        """One chain move.  Returns True when the new state is proper."""
        S, R, C = self.S, self.R, self.C
        n = self.n
        if self.improper is None:
            r = rng.randrange(n)
            c = rng.randrange(n)
            s = rng.randrange(n - 1)
            s1 = S[r][c]
            if s >= s1:
                s += 1
            r1 = R[c][s]
            c1 = C[r][s]
            fs, fc, fr = s, c, r
        else:
            r, c, s, sym2, col2, row2 = self.improper
            a = S[r][c]
            if rng.randrange(2):
                s1, fs = sym2, a
            else:
                s1, fs = a, sym2
            a = C[r][s]
            if rng.randrange(2):
                c1, fc = col2, a
            else:
                c1, fc = a, col2
            a = R[c][s]
            if rng.randrange(2):
                r1, fr = row2, a
            else:
                r1, fr = a, row2
        self.moves += 1
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
            self.improper = None
            self.proper_steps += 1
            return True
        self.improper = (r1, c1, s1, t, old_col, old_row)
        return False

    def snapshot(self) -> LatinSquare:
        if self.improper is not None:
            raise RuntimeError("cannot snapshot an improper state")
        return LatinSquare(np.array(self.S, dtype=np.int64))


def sample_square(
    n: int, rng: RandomStream, config: SamplerConfig | None = None
) -> LatinSquare:
    """One square off a fresh chain after the configured burn-in."""
    return sample_squares(n, 1, rng, config)[0]


def sample_squares(
    n: int, count: int, rng: RandomStream, config: SamplerConfig | None = None
) -> list[LatinSquare]:
    """``count`` squares from one chain, thinned between snapshots."""
    cfg = config or SamplerConfig()
    if n == 1:
        return [LatinSquare([[0]])] * count
    cube = IncidenceCube(group_table("cyclic", n))
    out = []
    target = int(cfg.burn_in_factor * n**3)
    thin = max(1, int(cfg.thin_factor * n**3))
    step = cube.step
    while len(out) < count:
        while cube.moves < target or cube.improper is not None:
            step(rng)
        out.append(cube.snapshot())
        target = cube.moves + thin
    return out


def enumerate_squares(n: int) -> list[LatinSquare]:
    """Every order-n Latin square, n <= 5 (576 at n = 4, 161280 at n = 5)."""
    if not 1 <= n <= 5:
        raise InputError("exhaustive enumeration is capped at n <= 5")
    grid = np.zeros((n, n), dtype=np.int64)
    row_used = [0] * n
    col_used = [0] * n
    out: list[LatinSquare] = []

    def fill(pos: int) -> None:
        if pos == n * n:
            out.append(LatinSquare(grid.copy()))
            return
        r, c = divmod(pos, n)
        free = ~(row_used[r] | col_used[c])
        for s in range(n):
            bit = 1 << s
            if free & bit:
                grid[r, c] = s
                row_used[r] |= bit
                col_used[c] |= bit
                fill(pos + 1)
                row_used[r] &= ~bit
                col_used[c] &= ~bit

    fill(0)
    return out


def sample_rectangle(
    k: int,
    n: int,
    rng: RandomStream,
    config: SamplerConfig | None = None,
) -> LatinRectangle:
    """Uniform k x n Latin rectangle by rejection over row permutations."""
    cfg = config or SamplerConfig()
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k} n={n}")
    gen = rng.generator
    for _ in range(cfg.rectangle_budget):
        rows = np.stack([gen.permutation(n) for _ in range(k)])
        srt = np.sort(rows, axis=0)
        if not (srt[1:] == srt[:-1]).any():
            return LatinRectangle(rows)
    raise RuntimeError(
        f"no Latin rectangle in {cfg.rectangle_budget} attempts at k={k}, n={n}"
    )
