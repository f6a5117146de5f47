"""Regularity boosting via an iterated fractional triangle decomposition.

Given a balanced tripartite graph and a triangle collection 𝒯 whose
per-edge counts are only weakly regular, the boosting procedure builds
triangle weights that are exactly vertex-balanced, iterates a linear
adjustment map that contracts per-edge discrepancies, normalizes, and
rounds: independent inclusion with the normalized weights as
probabilities yields a subcollection 𝒯' whose per-edge counts
concentrate near p^2 q n / 4.

The weight gadgets are the classical ones.  chi_{u,v} averages the two
triangle stars of a K_{2,1,1} through two same-part vertices and moves
one unit of vertex weight from v to u.  The seed phi0 = 1 + sum_j
chi_{V^j} moves the imbalance f_u = |T_u| - (3 deg(u) / 2|E|) |T|
off each part V^j; on a part where f is constant (every part of a
vertex-regular host, such as the conforming instance) chi_{V^j} = 0,
so it costs nothing there and phi0 is exactly 1.  A host with no
K_{2,1,1} through a same-part pair whose f differs cannot be balanced
this way, nor can one whose three cross-pair edge counts differ (the f
of some part then does not sum to 0): both are InputErrors, and
``latinlab boost`` exits 2 on them.

psi_e averages, over 6-cycles J through an edge e (alternating between
e's two parts), the function psi_{J,e} that places alternating signs
on the triangles hanging off J; every psi_{J,e} has identically zero
vertex weights, so the adjustment map A(phi) = phi - sum_e phi^disc(e)
psi_e preserves vertex balance exactly while cancelling edge
discrepancies to first order.

The 6-cycles through e = (a1, b1) are the ordered tails (a2, b2, a3,
b3) with a2, a3 distinct and avoiding a1 and b2, b3 distinct and
avoiding b1, (n-1)^2 (n-2)^2 per edge in the complete case.  psi_e
works on all of them at once, as one dense n^4 grid of common apex
sets per edge; apex sets are intersected through 64-bit masks, so
hosts are capped at part size 64, which covers the desk regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputError, TripartiteGraph
from .rng import RandomStream

MASK_CAP = 64
# relative tolerance of the vertex-balance precondition of adjust
BALANCE_REL = 1e-9
# random vertex and edge sets drawn per size in conditions (2) and (3)
SAMPLE_BUDGET = 300

# edge kinds: (part of i, part of j, apex part), matching the host's
# adjacency matrices adj12, adj23, adj31
KIND_COLS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
KIND_NAMES = ("12", "23", "31")


class TriangleSet:
    """A triangle collection over a balanced tripartite host.

    ``triangles`` is an (m, 3) integer array of rows (v1, v2, v3); m may
    be 0, repeated rows count once, and the order does not matter.  The
    rows are scattered into a boolean (n, n, n) presence cube, so
    ``tris`` comes out deduplicated and in lexicographic order.  Every
    index is a reduction of that cube: the id grid ``id3`` mapping
    (v1, v2, v3) to a row of ``tris`` (-1 where absent), per-edge
    triangle counts, 64-bit apex masks (bit w of apex_masks[k][i, j]
    says the triangle with kind-k edge (i, j) and apex w is present) and
    per-vertex triangle counts.

    ``toward`` is the (3, 2, n) array of host degrees: toward[p, 0, u]
    counts the neighbours of vertex u of part p in part p + 1,
    toward[p, 1, u] those in part p - 1, and ``deg`` is their sum.
    """

    __slots__ = ("host", "n", "tris", "id3", "apex_masks", "edge_counts",
                 "vertex_counts", "toward", "deg", "edges_per_pair")

    def __init__(self, host: TripartiteGraph, triangles):
        n1, n2, n3 = host.parts
        if not (n1 == n2 == n3):
            raise ValueError("host must be balanced")
        if n1 > MASK_CAP:
            raise ValueError(f"apex masks cap part size at {MASK_CAP}")
        self.host = host
        self.n = n = n1
        rows = np.asarray(triangles)
        if rows.shape == (0,):  # an empty list
            rows = np.zeros((0, 3), dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError("triangles must form an (m, 3) array")
        if rows.dtype.kind not in "iu":
            raise ValueError("triangle vertices must be integers")
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise ValueError("triangle vertex out of range")
        cube = np.zeros((n, n, n), dtype=bool)
        cube[rows[:, 0], rows[:, 1], rows[:, 2]] = True
        if (cube & ~(host.adj12[:, :, None] & host.adj23[None, :, :]
                     & host.adj31.T[:, None, :])).any():
            raise ValueError("triangle edge missing from host")
        flat = np.flatnonzero(cube)
        # (3, m) transposed, the layout np.argwhere gives; numpy divides
        # by a scalar far faster than it takes divmod or remainders
        tris = np.empty((3, len(flat)), dtype=np.int64)
        np.floor_divide(flat, n * n, out=tris[0])
        row_col = flat // n
        tris[1] = row_col - tris[0] * n
        tris[2] = flat - row_col * n
        self.tris = tris.T
        id3 = np.full(n**3, -1, dtype=np.int64)
        id3[flat] = np.arange(len(flat))
        self.id3 = id3.reshape(n, n, n)
        self.apex_masks = []
        self.edge_counts = []
        for cols in KIND_COLS:
            # axes (ci, cj, cw): reduce over the apex, which packbits
            # does fastest along a contiguous axis
            by_edge = np.ascontiguousarray(cube.transpose(cols))
            # bit w in byte w // 8, zero-padded to one little-endian word
            packed = np.zeros((n, n, 8), dtype=np.uint8)
            packed[:, :, :(n + 7) // 8] = np.packbits(
                by_edge, axis=2, bitorder="little")
            self.apex_masks.append(packed.view("<u8")[:, :, 0])
            self.edge_counts.append(by_edge.sum(axis=2, dtype=np.int64))
        # kind k's edges start in part k
        self.vertex_counts = np.stack([ec.sum(axis=1)
                                       for ec in self.edge_counts])
        # kind p joins part p to part p + 1, kind p - 1 part p - 1 to p
        self.toward = np.array(
            [(self.adj(p).sum(axis=1), self.adj((p + 2) % 3).sum(axis=0))
             for p in range(3)], dtype=np.int64)
        self.deg = self.toward.sum(axis=1)
        self.edges_per_pair = tuple(
            int(e) for e in self.toward[:, 0].sum(axis=1))

    def __len__(self) -> int:
        return len(self.tris)

    @property
    def edge_total(self) -> int:
        return sum(self.edges_per_pair)

    def adj(self, kind: int) -> np.ndarray:
        return (self.host.adj12, self.host.adj23, self.host.adj31)[kind]


def complete_host(n: int) -> TripartiteGraph:
    full = np.ones((n, n), dtype=bool)
    return TripartiteGraph.from_adjacency(full, full, full)


def conforming_instance(n: int, layers: int = 3) -> TriangleSet:
    """All triangles of K_{n,n,n} minus ``layers`` disjoint cyclic-shift
    squares: every edge lies in exactly n - layers triangles, so the
    instance is regular with xi = 0 at q = 1 - layers/n."""
    if not 0 <= layers < n:
        raise ValueError("need 0 <= layers < n")
    host = complete_host(n)
    # edge (i, j) keeps the apexes (i + j + d) mod n with d >= layers
    v = np.arange(n, dtype=np.min_scalar_type(3 * n))
    i, j, d = np.broadcast_arrays(v[:, None, None], v[None, :, None],
                                  v[None, None, layers:])
    rows = np.stack((i, j, (i + j + d) % n), axis=-1)
    return TriangleSet(host, rows.reshape(-1, 3))


# ---------------------------------------------------------------------------
# weight functions


class WeightFunction:
    """Triangle weights with cached vertex weights, edge weights, and
    total.  The caches are derived once from ``values``, which is kept
    as a contiguous float64 array.  The total is ``math.fsum`` over that
    buffer, the correctly rounded sum (it raises as ``math.fsum`` does
    on inf - inf and on overflow); discrepancies are differences of
    dense per-edge sums."""

    __slots__ = ("tset", "values", "vertex", "edge", "total")

    def __init__(self, tset: TriangleSet, values):
        self.tset = tset
        values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if values.shape != (len(tset),):
            raise ValueError("one weight per triangle required")
        self.values = values
        # fsum reads Python floats off the buffer, not numpy scalars
        self.total = math.fsum(memoryview(values))
        tris = tset.tris
        n = tset.n
        # bincount adds in triangle order, as a scatter-add would
        vertex = np.stack([np.bincount(tris[:, p], weights=values, minlength=n)
                           for p in range(3)])
        edge = [np.bincount(tris[:, ci] * n + tris[:, cj], weights=values,
                            minlength=n * n).reshape(n, n)
                for ci, cj, _ in KIND_COLS]
        self.vertex = vertex
        self.edge = edge

    def scale(self) -> float:
        return max(abs(self.total) / max(self.tset.edge_total, 1), 1.0)

    def disc(self, kind: int) -> np.ndarray:
        """Edge discrepancy phi^edge(e) - 3 phi^sum / |E| on kind-k
        host edges (zero off the host)."""
        target = 3.0 * self.total / self.tset.edge_total
        return np.where(self.tset.adj(kind), self.edge[kind] - target, 0.0)

    def max_disc(self) -> float:
        return max(float(np.abs(self.disc(k)).max()) for k in range(3))

    def vertex_residual(self) -> float:
        """Largest deviation from vertex balance,
        max_u |phi^vtx(u) - (3 deg(u) / 2|E|) phi^sum|."""
        bal = 3.0 * self.tset.deg * self.total / (2.0 * self.tset.edge_total)
        return float(np.abs(self.vertex - bal).max())

    def is_vertex_balanced(self, rel: float = 1e-9) -> bool:
        return self.vertex_residual() <= rel * self.scale()


def part_imbalance(tset: TriangleSet, part: int) -> np.ndarray:
    """f_u = |T_u| - (3 deg(u) / 2|E|) |T| over the part's vertices."""
    return (tset.vertex_counts[part]
            - 3.0 * tset.deg[part] * len(tset) / (2.0 * tset.edge_total))


def chi_part(tset: TriangleSet, part: int) -> np.ndarray:
    """Triangle values of chi_{V^j} = -(1/2n) sum_{u != v} (f_u - f_v)
    chi_{u,v}, as one matrix product.

    With P the n x n^2 presence matrix of the part (row u holds the
    triangles (u, x) over the n^2 vertex pairs x of the other parts)
    and m = P P^T the K_{2,1,1} counts of each vertex pair, the pair
    (u, v) puts coef / m[u, v] on the triangles (u, x) and -coef /
    m[u, v] on (v, x) for every x with both present.  The two orders
    of a pair add up, so the triangle (u, x) gets (A P)[u, x] with
    A[u, v] = -(f_u - f_v) / (n m[u, v]) (zero on the diagonal).

    A balanced part, f constant on it (as on every vertex-regular
    host), has chi_{V^j} = 0: every coefficient is zero, so no
    presence matrix is built and no K_{2,1,1} is needed.  Otherwise a
    pair with f_u != f_v and no K_{2,1,1} is a fault of the host, and
    raises InputError (``latinlab boost`` exits 2 on it)."""
    n = tset.n
    f = part_imbalance(tset, part)
    if (f == f[:1]).all():
        return np.zeros(len(tset))
    ids = np.moveaxis(tset.id3, part, 0).reshape(n, n * n)
    present = ids >= 0
    pres = present.astype(np.float64)
    m = pres @ pres.T
    gap = f[:, None] - f[None, :]
    if ((m == 0) & (gap != 0)).any():
        raise InputError("no K_{2,1,1} copies through the pair")
    a = np.divide(-gap, n * m, out=np.zeros((n, n)), where=m != 0)
    out = np.zeros(len(tset))
    out[ids[present]] = (a @ pres)[present]
    return out


def phi0(tset: TriangleSet) -> WeightFunction:
    """The vertex-balanced seed 1 + chi_{V^1} + chi_{V^2} + chi_{V^3}.

    A part's imbalances sum to |T| (1 - 3 (its two cross-pair counts) /
    2|E|), so unless the three cross-pair counts are equal (or 𝒯 is
    empty) no chi balances every part: that raises InputError."""
    pairs = tset.edges_per_pair
    if len(tset) and len(set(pairs)) > 1:
        raise InputError(f"cross-pair edge counts {pairs} differ, so no "
                         "chi can balance the vertex weights")
    out = np.ones(len(tset))
    for part in range(3):
        out += chi_part(tset, part)
    return WeightFunction(tset, out)


# ---------------------------------------------------------------------------
# psi gadgets


def _accumulate_psi(tset: TriangleSet, kind: int,
                    ii: np.ndarray, jj: np.ndarray, coefs: np.ndarray,
                    out: np.ndarray):
    """Add sum_e coefs[e] * psi_e over the given kind-k edges into out.

    Each edge e = (i, j) takes one dense grid over the cycle tails
    (a2, b2, a3, b3): the common apex mask W of the six cycle edges is
    the AND of six broadcast n x n apex tables, zeroed unless a2, a3
    are distinct and avoid i and b2, b3 are distinct and avoid j.  A
    set apex bit implies the host edge, so the tails with W != 0 are
    exactly the usable cycles, each of weight coefs[e] / cycles / |W|.
    For every apex w, three axis sums of that weight over the cycles
    with w in W give the w-triangles of the slots (a2, b2), (a3, b3)
    and (a3, b2); their margins give the slots (a2, j), (i, b3) and
    (i, j).  With the alternating slot signs these make one a x b
    matrix holding one entry per triangle, so it is added without a
    scatter.  Memory is O(n^4) per edge; the vertex weights of the
    added function are zero up to rounding.
    """
    n = tset.n
    am = tset.apex_masks[kind]
    ids = tset.id3.transpose(KIND_COLS[kind])  # axes (i, j, apex)
    ar = np.arange(n)
    for i, j, c in zip(ii.tolist(), jj.tolist(), coefs.tolist()):
        # (a2, b2): am[a2, j] & am[a2, b2] & am[i, j]; (a3, b3):
        # am[a3, b3] & am[i, b3]; (b2, a3): am[a3, b2]
        left = am & am[:, j, None] & am[i, j]
        right = am & am[i]
        left[i] = left[:, j] = right[i] = right[:, j] = 0
        w = (left[:, :, None, None] & am.T[None, :, :, None]
             & right[None, None])
        w[ar, :, ar] = 0   # a2 == a3
        w[:, ar, :, ar] = 0  # b2 == b3
        cycles = np.count_nonzero(w)
        if cycles == 0:
            raise ValueError(
                f"edge ({i}, {j}) of pair {KIND_NAMES[kind]} has no "
                "usable 6-cycle")
        base = (c / cycles) / np.maximum(np.bitwise_count(w), 1)
        apexes = int(am[i, j])
        for t in (t for t in range(n) if apexes >> t & 1):
            g = base * ((w & np.uint64(1 << t)) != 0)
            s22 = g.sum(axis=(2, 3))  # (a2, b2)
            h = g.sum(axis=0)         # (b2, a3, b3)
            s33 = h.sum(axis=0)       # (a3, b3)
            m = s22 + s33 - h.sum(axis=2).T  # minus (a3, b2)
            m[:, j] -= s22.sum(axis=1)
            m[i] -= s33.sum(axis=0)
            m[i, j] += s22.sum()
            nz = m != 0
            out[ids[:, :, t][nz]] += m[nz]


def psi_e(tset: TriangleSet, kind: int, i: int, j: int) -> WeightFunction:
    """psi_e: the average of psi_{J,e} over 6-cycles J through the
    kind-k edge (i, j).  Zero vertex weights exactly, and edge weight 1
    at e itself."""
    if kind not in (0, 1, 2):
        raise ValueError(f"kind must be 0, 1 or 2, got {kind}")
    # numpy indexing would wrap -1 and raise a bare IndexError at n
    for v in (i, j):
        if not 0 <= v < tset.n:
            raise ValueError(f"vertex {v} out of range")
    if not tset.adj(kind)[i, j]:
        raise ValueError("edge not in host")
    out = np.zeros(len(tset))
    _accumulate_psi(tset, kind,
                    np.asarray([i]), np.asarray([j]), np.asarray([1.0]),
                    out)
    return WeightFunction(tset, out)


def adjust(wf: WeightFunction) -> WeightFunction:
    """One step of the adjustment map
    A(phi) = phi - sum_e phi^disc(e) psi_e.

    Discrepancies within 1e-12 of the weight scale count as zero.  When
    every edge's does, the correction is zero and A(phi) = phi bit for
    bit, so ``wf`` itself is returned."""
    if not wf.is_vertex_balanced(BALANCE_REL):
        raise ValueError("adjust requires a vertex-balanced input")
    tset = wf.tset
    corr = None
    eps = 1e-12 * wf.scale()
    for kind in range(3):
        d = wf.disc(kind)
        ii, jj = np.nonzero(np.abs(d) > eps)
        if len(ii):
            if corr is None:
                corr = np.zeros(len(tset))
            _accumulate_psi(tset, kind, ii, jj, d[ii, jj], corr)
    if corr is None:
        return wf
    return WeightFunction(tset, wf.values - corr)


# ---------------------------------------------------------------------------
# condition checking


@dataclass
class Violation:
    condition: int
    pair: str
    where: tuple
    observed: float
    low: float
    high: float


@dataclass
class ConditionReport:
    n: int
    checked: dict[int, int]
    violation_counts: dict[int, int]
    sample: list[Violation]

    MAX_STORED = 20

    @property
    def ok(self) -> bool:
        return not any(self.violation_counts.values())

    def _check(self, condition: int, pair: str, observed, low, high,
               where) -> None:
        """Check each observed value against [low, high] (broadcast),
        count the violations in order and store the first ones;
        ``where(t)`` names the t-th checked item."""
        observed = np.asarray(observed)
        low = np.broadcast_to(low, observed.shape)
        high = np.broadcast_to(high, observed.shape)
        bad = np.flatnonzero((observed < low) | (observed > high))
        self.checked[condition] += len(observed)
        self.violation_counts[condition] += len(bad)
        for t in bad[:max(self.MAX_STORED - len(self.sample), 0)]:
            self.sample.append(Violation(condition, pair, where(t),
                                         float(observed[t]), float(low[t]),
                                         float(high[t])))


@dataclass
class RegParams:
    """Parameters of the boosting lemma."""

    p: float
    q: float
    C: float = 4.0
    iters: int | None = None

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0 and 0.0 < self.q <= 1.0):
            raise InputError("need p, q in (0, 1]")
        if not self.C >= 1.0:
            raise InputError(f"need C >= 1, got {self.C}: the band "
                             "[1/C, C] is empty below 1")
        if self.iters is not None and self.iters < 0:
            raise InputError(f"need iters >= 0, got {self.iters}")

    @property
    def xi(self) -> float:
        """The typicality tolerance, C^-8."""
        return self.C ** -8.0


def _sample_sets(gen: np.random.Generator, m: int, size: int,
                 count: int) -> np.ndarray:
    """``count`` rows of ``size`` distinct integers below m, each row
    uniform over the ordered ``size``-tuples.

    All rows are drawn iid with repetition in one call, and only the
    rows that repeat an index are drawn again, until none do; a row
    that survives is uniform over the distinct tuples, the law of
    ``gen.choice(m, size, replace=False)``, though not its stream."""
    if not 0 <= size <= m:
        raise ValueError(f"cannot draw {size} distinct indices below {m}")
    sets = gen.integers(0, m, size=(count, size))
    redo = np.arange(count)
    while True:
        ordered = np.sort(sets[redo], axis=1)
        redo = redo[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)]
        if not len(redo):
            return sets
        sets[redo] = gen.integers(0, m, size=(len(redo), size))


def check_conditions(tset: TriangleSet, params: RegParams,
                     rng: RandomStream | None = None) -> ConditionReport:
    """The four quasirandomness conditions behind the boosting step.

    (1) every host edge in (1 +- xi) p^2 q n triangles; (2) common
    graph neighborhoods of vertex sets S, |S| <= 6, drawn from two
    parts, of size (1 +- xi) p^{|S|} n in the third; (3) joint triangle
    extensions of edge sets Q, |Q| <= 6, within [C^-1, C] p^{|V(Q)|} n;
    (4) equal cross-pair edge counts and per-vertex degree gaps at most
    n^(2/3).  Sizes 1 and 2 are exhaustive, larger sets are sampled:
    one ``_sample_sets`` pool of SAMPLE_BUDGET sets per size, drawn for
    each target part or edge kind before its sets are checked.  Sizes
    stop at the number of items drawn from, the 2n vertices in (2) and
    the kind's host edges in (3), so small hosts check fewer sizes.  Each
    pool of equal-size sets is checked as one array reduction: a common
    neighborhood is ``rows[set].all(axis=0).sum()`` over the stacked
    adjacency rows toward the target, a joint extension the popcount of
    the ANDed apex masks.  Violations are counted in checking order and
    the first MAX_STORED kept as samples; they are never raised.
    """
    n = tset.n
    p, q, xi, C = params.p, params.q, params.xi, params.C
    rng = rng or RandomStream(0)
    gen = rng.generator
    rep = ConditionReport(n, {k: 0 for k in (1, 2, 3, 4)},
                          {k: 0 for k in (1, 2, 3, 4)}, [])

    target1 = p * p * q * n
    for kind in range(3):
        ii, jj = np.nonzero(tset.adj(kind))
        rep._check(1, KIND_NAMES[kind], tset.edge_counts[kind][ii, jj],
                   (1 - xi) * target1, (1 + xi) * target1,
                   lambda t: (int(ii[t]), int(jj[t])))

    # condition 2: the adjacency rows toward the target of its parts
    # target + 1 (kind target, transposed) and target + 2 (kind target + 2)
    for target in range(3):
        pa, pb = (target + 1) % 3, (target + 2) % 3
        verts = [(pa, v) for v in range(n)] + [(pb, v) for v in range(n)]
        rows = np.concatenate([tset.adj(target).T, tset.adj(pb)])
        # each pool holds one vertex set per row, as indexes into verts
        pools = [np.arange(2 * n)[:, None],
                 np.stack(np.triu_indices(2 * n, k=1), axis=1)]
        pools += [_sample_sets(gen, 2 * n, size, SAMPLE_BUDGET)
                  for size in range(3, min(6, 2 * n) + 1)]
        for sets in pools:
            size = sets.shape[1]
            rep._check(2, str(target), rows[sets].all(axis=1).sum(axis=1),
                       (1 - xi) * p**size * n, (1 + xi) * p**size * n,
                       lambda t: tuple(verts[v] for v in sets[t]))

    # condition 3: bands by the number of vertices an edge set spans
    low3 = np.array([p ** nv * n / C for nv in range(13)])
    high3 = np.array([p ** nv * n * C for nv in range(13)])
    for kind in range(3):
        am = tset.apex_masks[kind]
        eis, ejs = np.nonzero(tset.adj(kind))
        pools = [np.arange(len(eis))[:, None]]
        pools += [_sample_sets(gen, len(eis), size, SAMPLE_BUDGET)
                  for size in range(2, min(6, len(eis)) + 1)]
        for sets in pools:
            got = np.bitwise_count(
                np.bitwise_and.reduce(am[eis[sets], ejs[sets]], axis=1))
            nv = sum(1 + (np.diff(np.sort(ends[sets], axis=1), axis=1)
                          != 0).sum(axis=1) for ends in (eis, ejs))
            rep._check(3, KIND_NAMES[kind], got, low3[nv], high3[nv],
                       lambda t: tuple((int(eis[e]), int(ejs[e]))
                                       for e in sets[t]))

    pairs = tset.edges_per_pair
    rep._check(4, "all", [max(pairs)], min(pairs), min(pairs),
               lambda t: ("cross-pair counts",))
    gap_cap = n ** (2 / 3)
    for part, (d_next, d_prev) in enumerate(tset.toward):
        rep._check(4, str(part), np.abs(d_next - d_prev), 0.0, gap_cap,
                   lambda t: (int(t),))
    return rep


# ---------------------------------------------------------------------------
# the boost


class BoostDiverged(RuntimeError):
    """Discrepancy grew on two consecutive iterations."""


@dataclass
class TraceRow:
    iteration: int
    max_disc: float
    vertex_residual: float


@dataclass
class BoostResult:
    """What ``boost`` returns: ``phi_star``, the normalized weight of
    each triangle of the input set, clamped to [0, 1]; ``chosen``, the
    boolean mask of the triangles the rounding kept (the selected family
    is ``tset.tris[chosen]``); ``trace``, one row per iteration from the
    seed phi0 on; and ``beta``, the normalizing factor."""

    phi_star: np.ndarray
    chosen: np.ndarray
    trace: list[TraceRow]
    beta: float


def boost(tset: TriangleSet, params: RegParams, rng: RandomStream,
          force: bool = False) -> BoostResult:
    """Iterate the adjustment map, normalize, and round.

    Runs k = ceil((log n)^2) iterations by default, rescales by
    beta = 4 * mean_e phi_k^edge(e) / (p^2 q n), clamps to [0, 1], and
    includes each triangle independently with probability phi_*(T).
    Raises BoostDiverged when the discrepancy grows twice in a row,
    which signals a non-conforming input.  The condition check and the
    rounding draw read child streams 0 and 1 of ``rng``, so the selected
    family is the same whether or not the check runs.
    """
    n = tset.n
    if not force:
        rep = check_conditions(tset, params, rng.child(0))
        if not rep.ok:
            raise InputError(
                "conditions fail "
                f"(violations {rep.violation_counts}); pass force=True "
                "to boost anyway")
    k = params.iters if params.iters is not None else math.ceil(
        math.log(n) ** 2)
    wf = phi0(tset)
    trace = [TraceRow(0, wf.max_disc(), wf.vertex_residual())]
    grew = 0
    for it in range(1, k + 1):
        wf = adjust(wf)
        d = wf.max_disc()
        prev = trace[-1].max_disc
        grew = grew + 1 if d > prev * (1 + 1e-9) + 1e-12 else 0
        trace.append(TraceRow(it, d, wf.vertex_residual()))
        if grew >= 2:
            raise BoostDiverged(
                f"discrepancy grew twice in a row at iteration {it}")
    # the edge average of phi^edge is 3 phi^sum / |E|: each triangle
    # feeds exactly three edges
    beta = 4.0 * (3.0 * wf.total / tset.edge_total) / (params.p**2
                                                       * params.q * n)
    phi_star = np.clip(wf.values / beta, 0.0, 1.0)
    chosen = rng.child(1).generator.random(len(tset)) < phi_star
    return BoostResult(phi_star, chosen, trace, beta)
