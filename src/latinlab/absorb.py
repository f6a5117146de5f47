"""Absorber constructions: path covers, cycle shortening, spheres,
and rooted gadgets.

Everything here manipulates small colored tripartite graphs, held as
sets of edge keys.  Vertices are (part, index) pairs, edges are keyed
(kind, i, j) with kind p joining part p to part p+1, matching the
adjacency matrices of the core graph type.  Functions that take a graph
take any iterable of edge keys and read it as a set, so a repeated key
counts once.  ``TripartiteGraph`` appears only where a graph is read
from or written to a file: ``graph_edges`` and ``sphere_graphs``.  A
tripartite cycle has length divisible by 3 and visits the parts
cyclically, so any two vertices at distance 6 along it lie in the same
part.

The shortening rule cuts a long cycle at two same-part vertices u, v at
distance 6 and splices in a pair of augmenting paths of opposite
coloring types: one path closes the 6-edge segment into a 9-cycle, the
other closes the remainder.  A single path cannot do the job, because
one path can close only one of the two arcs and the other arc would
stay open; consuming the paths in pairs also keeps the per-type
balance, so leftovers always pair into tripartite 6-cycles.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import InputError, TripartiteGraph, TripleSystem
from .counting import girth
from .rng import RandomStream

Vertex = tuple[int, int]            # (part, index)
EdgeKey = tuple[int, int, int]      # (kind, i, j), kind p: part p -> p+1


def edge_key(u: Vertex, v: Vertex) -> EdgeKey:
    (pu, iu), (pv, iv) = u, v
    if pv == (pu + 1) % 3:
        return (pu, iu, iv)
    if pu == (pv + 1) % 3:
        return (pv, iv, iu)
    raise ValueError("same-part pair has no edge")


def triangle_edges(t: tuple[int, int, int]) -> tuple[EdgeKey, ...]:
    v0, v1, v2 = t
    return ((0, v0, v1), (1, v1, v2), (2, v2, v0))


def graph_edges(g: TripartiteGraph) -> set[EdgeKey]:
    out = set()
    for kind, adj in enumerate((g.adj12, g.adj23, g.adj31)):
        for i, j in zip(*np.nonzero(adj)):
            out.add((kind, int(i), int(j)))
    return out


def graph_from_edges(parts, edges) -> TripartiteGraph:
    by_kind = ([], [], [])
    for kind, i, j in edges:
        by_kind[kind].append((i, j))
    return TripartiteGraph(parts, *by_kind)


def is_triangle_divisible(edges) -> bool:
    """Every vertex has the same degree toward both other parts."""
    forward, backward = Counter(), Counter()
    for kind, i, j in set(edges):
        forward[kind, i] += 1
        backward[(kind + 1) % 3, j] += 1
    return forward == backward


def verify_triangle_decomposition(edges, triangles) -> bool:
    """True iff the triangles are edge-disjoint and cover the edges
    exactly."""
    seen: set[EdgeKey] = set()
    for t in triangles:
        for e in triangle_edges(tuple(t)):
            if e in seen:
                return False
            seen.add(e)
    return seen == set(edges)


# ---------------------------------------------------------------------------
# tripartite cycles


def _rotate_to_part0(cycle: list[Vertex]) -> list[Vertex]:
    k = next(i for i, (p, _) in enumerate(cycle) if p == 0)
    return cycle[k:] + cycle[:k]


def cycle_edges(cycle: list[Vertex]) -> list[EdgeKey]:
    return [edge_key(cycle[i], cycle[(i + 1) % len(cycle)])
            for i in range(len(cycle))]


def is_tripartite_cycle(cycle: list[Vertex]) -> bool:
    if len(cycle) % 3 != 0 or len(cycle) < 3:
        return False
    p0 = cycle[0][0]
    return all(p == (p0 + i) % 3 for i, (p, _) in enumerate(cycle))


def decompose_into_tripartite_cycles(edges) -> list[list[Vertex]]:
    """Partition a triangle-divisible edge set into tripartite cycles.
    Walks forward (part p to p+1) along unused edges, cutting out a
    cycle whenever the walk collides with itself; divisibility makes
    the walk digraph Eulerian-balanced, so it never strands an open
    path.
    """
    edges = set(edges)
    if not is_triangle_divisible(edges):
        raise InputError("graph is not triangle-divisible")
    out_nbrs: dict[Vertex, list[Vertex]] = {}
    for kind, i, j in edges:
        out_nbrs.setdefault((kind, i), []).append(((kind + 1) % 3, j))
    for lst in out_nbrs.values():
        lst.sort(reverse=True)   # pop() walks in ascending order

    cycles: list[list[Vertex]] = []
    starts = sorted(out_nbrs)
    for v0 in starts:
        while out_nbrs.get(v0):
            stack = [v0]
            pos = {v0: 0}
            while stack:
                v = stack[-1]
                nbrs = out_nbrs.get(v)
                if not nbrs:
                    # balanced walk can only stall back at its start
                    assert len(stack) == 1
                    stack.pop()
                    continue
                w = nbrs.pop()
                if w in pos:
                    cut = pos[w]
                    cyc = stack[cut:]
                    cycles.append(_rotate_to_part0(cyc))
                    for x in cyc[1:]:
                        del pos[x]
                    del stack[cut + 1:]
                else:
                    pos[w] = len(stack)
                    stack.append(w)
    return cycles


# ---------------------------------------------------------------------------
# path cover


class RegistryExhausted(RuntimeError):
    """A same-part pair ran out of augmenting paths of some type."""


@dataclass
class AugmentingPath:
    part: int
    u: int
    v: int
    ptype: int          # 0: interior parts (p+1, p+2); 1: (p+2, p+1)
    x: Vertex           # interior adjacent to u
    y: Vertex           # interior adjacent to v

    def vertices(self) -> list[Vertex]:
        return [(self.part, self.u), self.x, self.y, (self.part, self.v)]


class PathCover:
    """The graph wedge-X: mu internally-disjoint length-3 paths between
    every same-part pair of X, mu/2 of each proper-coloring type, each
    path on two fresh interior vertices.  The registry hands out unused
    paths and pairs the leftovers of opposite types into tripartite
    6-cycles.
    """

    def __init__(self, x_sizes: tuple[int, int, int], mu: int):
        m1, m2, m3 = x_sizes
        if mu < 1 or mu % 2:
            raise InputError("multiplicity must be a positive even number")
        self.x_sizes = (m1, m2, m3)
        self.mu = mu
        sizes = [m1, m2, m3]
        self.edges: set[EdgeKey] = set()
        self.paths: dict[tuple[int, int, int], list[list[AugmentingPath]]] = {}
        for part, m in enumerate(self.x_sizes):
            for u in range(m):
                for v in range(u + 1, m):
                    bins: list[list[AugmentingPath]] = [[], []]
                    for ptype in (0, 1):
                        px = (part + 1 + ptype) % 3
                        py = (part + 2 - ptype) % 3
                        for _ in range(mu // 2):
                            x = (px, sizes[px])
                            sizes[px] += 1
                            y = (py, sizes[py])
                            sizes[py] += 1
                            self.edges.update((edge_key((part, u), x),
                                               edge_key(x, y),
                                               edge_key(y, (part, v))))
                            bins[ptype].append(
                                AugmentingPath(part, u, v, ptype, x, y))
                    self.paths[part, u, v] = bins
        self.parts = tuple(sizes)

    def take(self, part: int, u: int, v: int, ptype: int) -> AugmentingPath:
        if u > v:
            u, v = v, u
        bins = self.paths.get((part, u, v))
        if bins is None:
            raise KeyError("not a same-part pair of X")
        if not bins[ptype]:
            raise RegistryExhausted(
                f"pair ({part},{u},{v}) has no type-{ptype} paths left")
        return bins[ptype].pop()

    def available(self, part: int, u: int, v: int) -> int:
        """Paths of each type left for the pair; 0 if it is no
        same-part pair of X."""
        if u > v:
            u, v = v, u
        bins = self.paths.get((part, u, v))
        return 0 if bins is None else min(len(bins[0]), len(bins[1]))

    def leftover_six_cycles(self) -> list[list[Vertex]]:
        """Pair unused opposite-type paths into tripartite 6-cycles."""
        out = []
        for (part, u, v), bins in sorted(self.paths.items()):
            assert len(bins[0]) == len(bins[1])
            while bins[0]:
                p0 = bins[0].pop()
                p1 = bins[1].pop()
                out.append(_rotate_to_part0(
                    [(part, u), p0.x, p0.y, (part, v), p1.y, p1.x]))
        return out


def shorten_cycles(cycles: list[list[Vertex]],
                   cover: PathCover) -> list[list[Vertex]]:
    """Cut every cycle longer than 9 down to tripartite cycles of
    length at most 9, consuming one augmenting path of each type per
    cut.  One path closes the cut-off 6-edge segment into a 9-cycle,
    the partner path of the opposite type closes the remainder, which
    is 3 shorter than the input and goes back on the work pile."""
    out: list[list[Vertex]] = []
    work = [list(c) for c in cycles]
    while work:
        cyc = work.pop()
        if len(cyc) <= 9:
            out.append(_rotate_to_part0(cyc))
            continue
        length = len(cyc)
        # cut across the registry pair with most paths left; spliced-in
        # interior vertices are not registry pairs and have none
        best, best_avail = 0, 0
        for i in range(length):
            (part, a), (_, b) = cyc[i], cyc[(i + 6) % length]
            avail = cover.available(part, a, b)
            if avail > best_avail:
                best, best_avail = i, avail
        if best_avail == 0:
            raise RegistryExhausted("no distance-6 cut has paths left")
        i = best
        seg = [cyc[(i + k) % length] for k in range(7)]
        rest = [cyc[(i + 6 + k) % length] for k in range(length - 5)]
        part, a = cyc[i]
        b = cyc[(i + 6) % length][1]
        p0 = cover.take(part, a, b, 0)
        p1 = cover.take(part, a, b, 1)
        # seg runs a..b and returns through interiors (part+1, part+2);
        # rest runs b..a and returns likewise.  Stored paths go from
        # min to max, so which type faces which arc flips with a < b.
        if a < b:
            nine = seg + [p1.y, p1.x]
            remainder = rest + [p0.x, p0.y]
        else:
            nine = seg + [p0.x, p0.y]
            remainder = rest + [p1.y, p1.x]
        out.append(_rotate_to_part0(nine))
        work.append(remainder)
    return out


def verify_cycle_partition(edges: set[EdgeKey],
                           cycles: list[list[Vertex]]) -> bool:
    seen: set[EdgeKey] = set()
    for cyc in cycles:
        if not is_tripartite_cycle(cyc):
            return False
        for e in cycle_edges(cyc):
            if e in seen:
                return False
            seen.add(e)
    return seen == edges


# largest path multiplicity tried when none is given
MU_CAP = 64
# random walks tried before random_divisible_graph returns what it has
WALK_TRIES = 200


@dataclass
class ShortCycleCover:
    cycles: list[list[Vertex]]
    mu: int
    verified: bool


def cover_with_short_cycles(l_edges, x_sizes: tuple[int, int, int],
                            mu: int | None = None) -> ShortCycleCover:
    """Lemma machinery end to end: decompose a triangle-divisible edge
    set L on X into tripartite cycles, shorten them through a fresh path
    cover, and pair the unused paths; the result partitions E(L u
    wedge-X) into tripartite cycles of length <= 9.  When mu is not
    given, even multiplicities are tried in increasing order and the
    smallest workable one wins."""
    l_edges = set(l_edges)
    tries = [mu] if mu is not None else list(range(2, MU_CAP + 1, 2))
    last_err: Exception | None = None
    # shorten_cycles copies the cycles it cuts, so one decomposition
    # serves every try
    base = decompose_into_tripartite_cycles(l_edges)
    for m in tries:
        cover = PathCover(x_sizes, m)
        try:
            short = shorten_cycles(base, cover)
        except RegistryExhausted as err:
            last_err = err
            continue
        short += cover.leftover_six_cycles()
        if cover.edges & l_edges:
            raise InputError("L overlaps the path cover")
        return ShortCycleCover(short, m, verify_cycle_partition(
            cover.edges | l_edges, short))
    raise RegistryExhausted(str(last_err))


def random_divisible_graph(x_sizes: tuple[int, int, int], target_cycles: int,
                           rng: RandomStream) -> set[EdgeKey]:
    """The edge set of an edge-disjoint union of random tripartite
    cycles on X: random forward walks over unused pairs, cut at first
    self-collision."""
    if target_cycles < 0:
        raise InputError(f"need target_cycles >= 0, got {target_cycles}")
    used: set[EdgeKey] = set()
    got = 0
    for _ in range(WALK_TRIES):
        if got >= target_cycles:
            break
        part = rng.randrange(3)
        v: Vertex = (part, rng.randrange(x_sizes[part]))
        stack, pos = [v], {v: 0}
        while True:
            p_next = (stack[-1][0] + 1) % 3
            options = [w for w in range(x_sizes[p_next])
                       if edge_key(stack[-1], (p_next, w)) not in used
                       and ((p_next, w) not in pos
                            or (p_next, w) == stack[0])]
            options = [w for w in options
                       if (p_next, w) != stack[0] or len(stack) >= 3]
            if not options:
                break
            w: Vertex = (p_next, rng.shuffled(options)[0])
            if w in pos:
                cyc = stack[pos[w]:]
                for e in cycle_edges(cyc):
                    used.add(e)
                got += 1
                break
            pos[w] = len(stack)
            stack.append(w)
    return used


# ---------------------------------------------------------------------------
# spheres


@dataclass
class SphereCover:
    g: int
    base: tuple[Vertex, Vertex, Vertex]          # (a, b1, b2)
    new_vertices: list[Vertex]                   # b3..b_{2g}, then c
    edges: list[EdgeKey]                         # the sphere Q
    out_dec: list[tuple[Vertex, Vertex, Vertex]]
    in_dec: list[tuple[Vertex, Vertex, Vertex]]


def sphere_blocks(a: Vertex, b1: Vertex, b2: Vertex, g: int, alloc):
    """The g-sphere glued on the triple (a, b1, b2): 2g - 1 fresh
    vertices b3..b_{2g}, c with c colored like a and b_j alternating
    between the colors of b2 (even j) and b1 (odd j).  Returns the
    sphere edges, the out-decomposition (2g - 1 triangles covering the
    sphere alone), and the in-decomposition (2g triangles covering
    sphere plus triple).  The triple itself is in neither."""
    if g < 2:
        raise InputError("need g >= 2")
    b = [None, b1, b2]
    for j in range(3, 2 * g + 1):
        b.append(alloc(b2[0] if j % 2 == 0 else b1[0]))
    c = alloc(a[0])
    edges = [edge_key(a, b[j]) for j in range(3, 2 * g + 1)]
    edges += [edge_key(c, b[j]) for j in range(1, 2 * g + 1)]
    edges += [edge_key(b[j], b[j + 1]) for j in range(2, 2 * g)]
    edges.append(edge_key(b[2 * g], b[1]))
    out_dec = [(c if j % 2 == 0 else a, b[j], b[j + 1])
               for j in range(2, 2 * g)]
    out_dec.append((c, b[2 * g], b[1]))
    in_dec = [(c if j % 2 == 1 else a, b[j], b[j + 1])
              for j in range(1, 2 * g)]
    in_dec.append((a, b[2 * g], b[1]))
    new = b[3:] + [c]
    return edges, out_dec, in_dec, new


def _as_index_triangle(t: tuple[Vertex, Vertex, Vertex]) -> tuple[int, int, int]:
    by_part = {p: i for p, i in t}
    if len(by_part) != 3:
        raise ValueError("triangle must take one vertex per part")
    return (by_part[0], by_part[1], by_part[2])


def sphere_cover(g: int) -> SphereCover:
    """A standalone g-sphere over a fresh triple, with both
    decompositions."""
    sizes = [1, 1, 1]

    def alloc(part: int) -> Vertex:
        sizes[part] += 1
        return (part, sizes[part] - 1)

    a, b1, b2 = (0, 0), (1, 0), (2, 0)
    edges, out_dec, in_dec, new = sphere_blocks(a, b1, b2, g, alloc)
    return SphereCover(g, (a, b1, b2), new, edges, out_dec, in_dec)


def sphere_graphs(sc: SphereCover) -> tuple[TripartiteGraph, TripartiteGraph]:
    """The sphere Q and Q plus the base triple, for checking the two
    decompositions."""
    parts = [0, 0, 0]
    for p, i in [*sc.base, *sc.new_vertices]:
        parts[p] = max(parts[p], i + 1)
    q = graph_from_edges(parts, sc.edges)
    a, b1, b2 = sc.base
    qt = graph_from_edges(parts, sc.edges + [edge_key(a, b1),
                                             edge_key(a, b2),
                                             edge_key(b1, b2)])
    return q, qt


def sphere_decompositions(sc: SphereCover) -> tuple[list[tuple[int, int, int]],
                                                    list[tuple[int, int, int]]]:
    """Out- and in-decomposition as index triples (v1, v2, v3)."""
    return ([_as_index_triangle(t) for t in sc.out_dec],
            [_as_index_triangle(t) for t in sc.in_dec])


def sphere_certificates_ok(sc: SphereCover) -> bool:
    """Both decompositions partition what they claim, at the claimed
    sizes, and the base triple is in neither."""
    out, ind = sphere_decompositions(sc)
    base = _as_index_triangle(sc.base)
    return (len(out) == 2 * sc.g - 1 and len(ind) == 2 * sc.g
            and base not in out and base not in ind
            and verify_triangle_decomposition(sc.edges, out)
            and verify_triangle_decomposition(
                sc.edges + list(triangle_edges(base)), ind))


# ---------------------------------------------------------------------------
# rooted gadgets


class GadgetSearchFailed(RuntimeError):
    """Budget exhausted without a certificate; says nothing about
    nonexistence."""


@dataclass
class RootedGadget:
    h_name: str
    parts: tuple[int, int, int]
    roots: list[Vertex]                              # independent in gadget
    h_edges: list[EdgeKey]
    gadget_edges: list[EdgeKey]
    dec_gadget: list[tuple[int, int, int]]           # partitions the gadget
    dec_joint: list[tuple[int, int, int]]            # partitions gadget + H

    def verify(self) -> bool:
        root_pairs = {frozenset(((r1[0], r1[1]), (r2[0], r2[1])))
                      for r1 in self.roots for r2 in self.roots if r1 != r2}
        for kind, i, j in self.gadget_edges:
            u, v = (kind, i), ((kind + 1) % 3, j)
            if frozenset((u, v)) in root_pairs:
                return False
        return (verify_triangle_decomposition(self.gadget_edges,
                                              self.dec_gadget)
                and verify_triangle_decomposition(
                    self.gadget_edges + self.h_edges, self.dec_joint))


def _cycle_roots(length: int) -> tuple[list[Vertex], list[EdgeKey]]:
    roots = [(i % 3, i // 3) for i in range(length)]
    edges = [edge_key(roots[i], roots[(i + 1) % length])
             for i in range(length)]
    return roots, edges


def gadget_search(h: str, aux_budget: int = 3,
                  node_cap: int = 2_000_000) -> RootedGadget:
    """Backtracking search for A(H), H a tripartite cycle: a graph on
    the roots plus auxiliary vertices, roots independent, such that the
    gadget and gadget-plus-H are both triangle-decomposable.

    The search is decomposition-first: it exact-covers the H edges with
    triangles (never using a root pair other than an H edge), then
    exact-covers the auxiliary edges those triangles introduced.  First
    success in lexicographic order wins; exceeding the node budget
    raises, which is a search failure, not a nonexistence proof.
    """
    lengths = {"C3": 3, "C6": 6, "C9": 9}
    if h not in lengths:
        raise InputError("H must be one of C3, C6, C9")
    if not 0 <= aux_budget <= 12:
        raise InputError("auxiliary budget must be in 0..12")
    roots, h_edges = _cycle_roots(lengths[h])
    nroots = lengths[h] // 3
    h_edge_set = set(h_edges)
    nodes = 0

    def covers(required, used, by_edge, allowed):
        """Yield exact covers of the required edges as triangle lists;
        `used` carries every edge of every chosen triangle."""
        nonlocal nodes
        req = [e for e in required if e not in used]
        if not req:
            yield []
            return
        nodes += 1
        if nodes > node_cap:
            raise GadgetSearchFailed(f"node budget exhausted searching A({h})")
        e0 = req[0]
        for t in by_edge.get(e0, ()):
            es = triangle_edges(t)
            if any(x in used for x in es) or not allowed(t):
                continue
            used.update(es)
            for rest in covers(required, used, by_edge, allowed):
                yield [t] + rest
            used.difference_update(es)

    def attempt(aux_counts: tuple[int, int, int]) -> RootedGadget | None:
        parts = tuple(nroots + a for a in aux_counts)
        is_root = [[i < nroots for i in range(parts[p])] for p in range(3)]

        def tri_ok(t: tuple[int, int, int]) -> bool:
            # root pairs are allowed only along H edges
            for e in triangle_edges(t):
                kind, i, j = e
                if (is_root[kind][i] and is_root[(kind + 1) % 3][j]
                        and e not in h_edge_set):
                    return False
            return True

        universe = [t for t in itertools.product(*(range(parts[p])
                                                   for p in range(3)))
                    if tri_ok(t)]
        by_edge: dict[EdgeKey, list[tuple[int, int, int]]] = {}
        for t in universe:
            for e in triangle_edges(t):
                by_edge.setdefault(e, []).append(t)

        used_joint: set[EdgeKey] = set()
        for joint in covers(h_edges, used_joint, by_edge, lambda t: True):
            aux_edges = sorted(used_joint - h_edge_set)
            aux_set = set(aux_edges)
            alone = next(
                covers(aux_edges, set(), by_edge,
                       lambda t: all(e in aux_set for e in triangle_edges(t))),
                None)
            if alone is not None:
                return RootedGadget(h, parts, roots, list(h_edges),
                                    aux_edges, alone, joint)
        return None

    for total in range(aux_budget + 1):
        for a1 in range(total + 1):
            for a2 in range(total - a1 + 1):
                got = attempt((a1, a2, total - a1 - a2))
                if got is not None:
                    if not got.verify():
                        raise AssertionError("search produced a bad gadget")
                    return got
    raise GadgetSearchFailed(
        f"no A({h}) within {aux_budget} auxiliary vertices")


def reference_c3_gadget() -> RootedGadget:
    """A(C3) by hand: the complete tripartite graph on parts {r_j, a_j}
    minus the root triangle.  The gadget alone decomposes as the three
    triangles with one root each; gadget plus C3 decomposes as the four
    triangles with an odd number of auxiliaries."""
    h_edges = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    gadget_edges = [(k, i, j) for k in range(3)
                    for i, j in ((0, 1), (1, 0), (1, 1))]
    gad = RootedGadget(
        "C3", (2, 2, 2), [(0, 0), (1, 0), (2, 0)], h_edges, gadget_edges,
        dec_gadget=[(0, 1, 1), (1, 0, 1), (1, 1, 0)],
        dec_joint=[(1, 1, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0)])
    assert gad.verify()
    return gad


# ---------------------------------------------------------------------------
# end-to-end demo


@dataclass
class AbsorberDemoCase:
    label: str
    blocks: int
    cover_ok: bool
    girth_found: int | None        # None: girth exceeds the target


@dataclass
class AbsorberDemo:
    g: int
    gadget_aux: int
    cases: list[AbsorberDemoCase]

    @property
    def ok(self) -> bool:
        return all(c.cover_ok and c.girth_found is None for c in self.cases)


def absorber_demo(g: int = 6) -> AbsorberDemo:
    """Assemble and certify the full absorber at one X vertex per part.

    At this size the path cover is empty, so the cycle stage is a
    single A(C3) copy rooted at X, and spheres are glued on every
    tripartite triple of the copy's vertex set.  Every triangle-
    divisible graph L on X is enumerated; for each, the demo absorbs
    L's cycles through the gadget, replaces each block by its sphere's
    in-decomposition, covers the remaining spheres by out-
    decompositions, then checks that the blocks exactly cover all
    edges ever introduced and that the girth exceeds g.
    """
    if not 2 <= g <= 10:
        raise InputError("demo supports 2 <= g <= 10")
    gadget = reference_c3_gadget()
    x_edges = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    cases = []
    for mask in range(8):
        l_edges = [e for b, e in enumerate(x_edges) if mask >> b & 1]
        if not is_triangle_divisible(l_edges):
            continue
        sizes = [1, 1, 1]

        def alloc(part: int) -> Vertex:
            sizes[part] += 1
            return (part, sizes[part] - 1)

        vmap: dict[Vertex, Vertex] = {}
        for p in range(3):
            vmap[p, 0] = (p, 0)
            for i in range(1, gadget.parts[p]):
                vmap[p, i] = alloc(p)
        edges = list(l_edges)
        for kind, i, j in gadget.gadget_edges:
            edges.append(edge_key(vmap[kind, i], vmap[(kind + 1) % 3, j]))
        cycles = decompose_into_tripartite_cycles(l_edges)
        assert len(cycles) <= 1    # at most the root triangle
        source = gadget.dec_joint if cycles else gadget.dec_gadget
        block_set = {(vmap[0, t[0]][1], vmap[1, t[1]][1], vmap[2, t[2]][1])
                     for t in source}
        final: list[tuple[int, int, int]] = []
        z_parts = [[vmap[p, i] for i in range(gadget.parts[p])]
                   for p in range(3)]
        for t0, t1, t2 in itertools.product(*z_parts):
            key = (t0[1], t1[1], t2[1])
            sph_edges, out_dec, in_dec, _ = sphere_blocks(t0, t1, t2, g, alloc)
            edges += sph_edges
            chosen = in_dec if key in block_set else out_dec
            block_set.discard(key)
            final += [_as_index_triangle(t) for t in chosen]
        assert not block_set, "a block fell outside the sphere stage"
        if len(edges) != len(set(edges)):
            raise AssertionError("absorber stages overlap")
        cover_ok = verify_triangle_decomposition(edges, final)
        gv = girth(TripleSystem(max(sizes), final), g_max=g)
        cases.append(
            AbsorberDemoCase(f"|L|={len(l_edges)}", len(final), cover_ok, gv))
    aux = sum(gadget.parts) - len(gadget.roots)
    return AbsorberDemo(g, aux, cases)
