"""Few cells, many intercalates: the extremal profile and its bounds.

I*(m) is the maximum number of intercalates a partial Latin square with
m filled cells can carry, and Phi(N) = min{m : I*(m) >= N} is the least
number of cells achieving N intercalates.  The exact oracle is a proved
table for m <= 8: two distinct intercalates share at most one cell, so
k of them cover at least 4k - k(k-1)/2 cells, which gives I*(m) = 0
below 4 cells, 1 up to 6 and 2 up to 8, each attained by a small
witness (``max_intercalates_oracle``).

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

# the order-2 intercalate, and two intercalates sharing the cell (0, 0)
_ONE = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
_TWO = ((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (1, 1, 0), (2, 0, 2),
        (2, 2, 0))


@lru_cache(maxsize=None)
def max_intercalates_oracle(m: int) -> tuple[int, TripleSystem]:
    """Exact I*(m) with a maximizing configuration, m <= 8.

    Two distinct intercalates share at most one cell: in
    {(r, c, s), (r, c', t), (r', c, t), (r', c', s)} any two cells agree
    in one coordinate and each other cell takes one of its remaining two
    coordinates from each of them, so the two fix the other two, a
    partial Latin square holding at most one cell with any two given
    coordinates.  By Bonferroni, k intercalates then cover at least
    4k - k(k-1)/2 cells: 4 for k = 1, 7 for k = 2 and 9 for k = 3, and a
    family of more than three holds three.  So I*(m) is 0 below 4 cells,
    1 up to 6 and 2 up to 8, and the witnesses (the diagonal, ``_ONE``
    and ``_TWO``) attain it.
    """
    if not 0 <= m <= ORACLE_CELL_CAP:
        raise InputError(f"oracle supports 0 <= m <= {ORACLE_CELL_CAP}")
    if m < 4:
        # an intercalate needs 4 cells; any clash-free placement works
        return 0, TripleSystem(max(m, 1), ((i, i, i) for i in range(m)))
    if m < 7:
        return 1, TripleSystem(2, _ONE)
    return 2, TripleSystem(3, _TWO)


def phi_exact(N: int) -> int | None:
    """min{m : I*(m) >= N} when it is at most ``ORACLE_CELL_CAP``."""
    if N < 1:
        raise InputError("need N >= 1")
    for m in range(1, ORACLE_CELL_CAP + 1):
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


def phi_report(N: int) -> PhiRecord:
    """Bounds, the exact value when the oracle reaches it, and the
    ratios against the (4N)^(2/3) growth rate."""
    lower = phi_lower_bound(N)
    exact = phi_exact(N)
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
