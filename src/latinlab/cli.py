"""Command-line front end.

Usage sketch:

    latinlab count intercalates square.txt more.txt
    latinlab count cuboctahedra square.txt
    latinlab count subsquares --k 3 square.txt
    latinlab count girth --max 12 system.txt
    latinlab sample square --n 9 --count 3 --seed 7 --out squares.txt
    latinlab sample rectangle --n 100 --k 3 --seed 1
    latinlab process run --n 50 --g 6 --seed 2 --out final.txt
    latinlab phi --N 12
    latinlab boost --graph host.json --triangles cand.txt --q 0.9 --out run
    latinlab absorb spheres --g 6 --out run
    latinlab absorb path-cover --sizes 4,4,4 --cycles 6 --seed 3
    latinlab absorb gadget --h C3
    latinlab experiment intercalate-mean --n 20 --samples 2000 --out results
    latinlab experiment all --skip trp-trajectory boost-convergence --out results
    latinlab report results

Counting verbs emit CSV rows ``input,metric,value`` to stdout
(``--format json`` switches to a JSON array).  File inputs use the core
text formats: grids with an ``n`` or ``k n`` header (``.`` for empty
cells), triple lists with an ``n`` header, tripartite graphs as JSON.
A file whose grid and triple readings both make sense (order 3 with
exactly 3 rows) is read as a grid.

Exit status: 0 when the verb succeeded and every reported check passed,
1 when a report or experiment row failed or on an internal error
(``internal error: ...`` after the traceback), 2 on usage or input errors
(``InputError``: bad files, parameters or experiment names).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import traceback

from .absorb import (
    cover_with_short_cycles,
    gadget_search,
    graph_edges,
    random_divisible_graph,
    reference_c3_gadget,
    sphere_cover,
    sphere_decompositions,
    sphere_graphs,
)
from .core import (
    InputError,
    LatinSquare,
    parse_grid,
    parse_tripartite,
    parse_triples,
    serialize_grid,
    serialize_tripartite,
    serialize_triples,
)
from .counting import (
    count_intercalates,
    count_subsquares,
    cuboctahedron_report,
    girth,
)
from .experiments import (
    EXPERIMENTS,
    check_lines,
    make_spec,
    report,
    run_experiment,
)
from .extremal import phi_report
from .fracdec import RegParams, TriangleSet, boost
from .process import ProcessConfig, run_process
from .rng import RandomStream
from .sampling import SamplerConfig, sample_rectangles, sample_squares


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from exc


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _split_grids(text: str) -> list[str]:
    """Cut a concatenation of grids at the header lines."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    chunks = []
    i = 0
    while i < len(lines):
        header = lines[i].split()
        k = int(header[0]) if header[0].isdecimal() else 0
        if not 1 <= len(header) <= 2 or k < 1:
            raise InputError(f"bad grid header {lines[i]!r}")
        if i + 1 + k > len(lines):
            raise InputError("truncated grid")
        chunks.append("\n".join(lines[i:i + 1 + k]) + "\n")
        i += 1 + k
    if not chunks:
        raise InputError("empty input")
    return chunks


def _load_objects(path: str) -> list[tuple[str, object]]:
    """Sniff the text formats: one grid, one triple list, or a
    concatenation of grids.  Grids win the (rare) ambiguous case."""
    text = _read(path)
    try:
        return [(path, parse_grid(text))]
    except InputError as grid_err:
        first_err = grid_err
    try:
        return [(path, parse_triples(text))]
    except InputError:
        pass
    try:
        objs = [parse_grid(chunk) for chunk in _split_grids(text)]
    except InputError:
        raise InputError(f"{path}: {first_err}") from first_err
    return [(f"{path}#{i}", obj) for i, obj in enumerate(objs)]


def _as_square(label: str, obj) -> LatinSquare:
    if not isinstance(obj, LatinSquare):
        raise InputError(f"{label}: need a complete Latin square")
    return obj


def _load_triangle_list(path: str, n: int) -> list[tuple[int, int, int]]:
    """Triangle list in the triple-list format, unchecked beyond range."""
    lines = [ln for ln in (s.strip() for s in _read(path).splitlines()) if ln]
    if not lines:
        raise InputError(f"{path}: empty triangle list")
    try:
        header = int(lines[0])
        rows = [tuple(int(t) for t in ln.split()) for ln in lines[1:]]
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if header != n:
        raise InputError(f"{path}: header {header} does not match host order {n}")
    if any(len(r) != 3 for r in rows):
        raise InputError(f"{path}: triangles need exactly three vertices")
    return rows


def _emit_rows(rows: list[tuple[str, str, object]], fmt: str,
               out: str | None) -> None:
    if fmt == "json":
        payload = [{"input": i, "metric": m, "value": v} for i, m, v in rows]
        _write_out(json.dumps(payload, indent=2) + "\n", out)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["input", "metric", "value"])
    writer.writerows(rows)
    _write_out(buf.getvalue(), out)


# ---------------------------------------------------------------------------
# count


def _cmd_count(args) -> int:
    rows: list[tuple[str, str, object]] = []
    for path in args.files:
        for label, obj in _load_objects(path):
            if args.object == "intercalates":
                rows.append((label, "intercalates", count_intercalates(obj)))
            elif args.object == "cuboctahedra":
                rep = cuboctahedron_report(obj)
                rows.append((label, "cuboctahedra_total", rep.total))
                rows.append((label, "cuboctahedra_nondegenerate",
                             rep.nondegenerate))
                rows.append((label, "cuboctahedra_degenerate",
                             rep.degenerate_total()))
                for name in sorted(rep.breakdown):
                    rows.append((label, f"class_{name}",
                                 rep.breakdown[name]))
            elif args.object == "subsquares":
                rows.append((label, f"subsquares_{args.k}",
                             count_subsquares(_as_square(label, obj),
                                              args.k)))
            else:
                g = girth(obj, g_max=args.max)
                rows.append((label, "girth",
                             g if g is not None else f">{args.max}"))
    _emit_rows(rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# sample


def _cmd_sample(args) -> int:
    rng = RandomStream(args.seed)
    if args.kind == "square":
        cfg = (SamplerConfig() if args.burnin is None
               else SamplerConfig(burn_in_factor=args.burnin))
        grids = sample_squares(args.n, args.count, rng, cfg)
    else:
        if args.k is None:
            raise InputError("sample rectangle needs --k")
        if args.burnin is not None:
            raise InputError("--burnin is for sample square: rectangles "
                             "are exact rejection draws, with no chain")
        grids = sample_rectangles(args.k, args.n, args.count, rng)
    _write_out("".join(serialize_grid(g) for g in grids), args.out)
    return 0


# ---------------------------------------------------------------------------
# process


def _parse_checkpoints(text: str | None) -> list[int]:
    if not text:
        return []
    try:
        pts = sorted({int(t) for t in text.split(",") if t.strip()})
    except ValueError as exc:
        raise InputError(f"bad checkpoint list {text!r}") from exc
    if any(t < 0 for t in pts):
        raise InputError("checkpoints must be nonnegative")
    return pts


def _cmd_process(args) -> int:
    cfg = ProcessConfig(girth=args.g, max_steps=args.m)
    res = run_process(args.n, RandomStream(args.seed), cfg)
    points = _parse_checkpoints(args.checkpoints) or range(res.steps)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["t", "available", "chosen"])
    for t in points:
        if t >= res.steps:
            continue
        r, c, s = res.order[t]
        writer.writerow([t, int(res.available_trace[t]), f"{r} {c} {s}"])
    if args.out:
        _write_out(serialize_triples(res.placed), args.out)
    print(f"# steps={res.steps} coverage={res.coverage:.4f} "
          f"stalled={int(res.stalled)}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# phi


def _cmd_phi(args) -> int:
    rec = phi_report(args.N)
    witness_path = args.witness_out
    if witness_path is None:
        base = os.path.dirname(args.out) if args.out else ""
        witness_path = os.path.join(base, f"phi_witness_N{args.N}.txt")
    _write_out(serialize_triples(rec.witness), witness_path)
    payload = {
        "N": rec.N,
        "lower": rec.lower_bound,
        "upper": rec.upper_bound,
        "exact": rec.exact,
        "witness_file": witness_path,
    }
    _write_out(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# boost


def _cmd_boost(args) -> int:
    host = parse_tripartite(_read(args.graph))
    triangles = _load_triangle_list(args.triangles, host.parts[0])
    try:
        tset = TriangleSet(host, triangles)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    params = RegParams(p=args.p, q=args.q, C=args.C, iters=args.iters)
    res = boost(tset, params, RandomStream(args.seed), force=args.force)

    os.makedirs(args.out, exist_ok=True)
    star_lines = [f"{i} {format(w, '.12g')}"
                  for i, w in enumerate(res.phi_star)]
    _write_out("\n".join(star_lines) + "\n",
               os.path.join(args.out, "boost_phi_star.txt"))
    selected = tset.tris[res.chosen]
    sel = [f"{v1} {v2} {v3}" for v1, v2, v3 in selected]
    _write_out("\n".join([str(tset.n)] + sel) + "\n",
               os.path.join(args.out, "boost_selected.txt"))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iter", "max_disc", "vertex_residual"])
    for row in res.trace:
        writer.writerow([row.iteration, format(row.max_disc, ".12g"),
                         format(row.vertex_residual, ".12g")])
    _write_out(buf.getvalue(), os.path.join(args.out, "boost_trace.csv"))
    print(f"beta={format(res.beta, '.12g')} "
          f"final_max_disc={format(res.trace[-1].max_disc, '.12g')} "
          f"selected={len(selected)}")
    return 0


# ---------------------------------------------------------------------------
# absorb


def _parse_sizes(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad part sizes {text!r}") from exc
    if len(parts) != 3 or any(p < 1 for p in parts):
        raise InputError("--sizes needs three positive integers")
    return parts


def _cmd_absorb(args) -> int:
    if args.what == "spheres":
        sc = sphere_cover(args.g)
        q, qt = sphere_graphs(sc)
        out_dec, in_dec = sphere_decompositions(sc)
        os.makedirs(args.out, exist_ok=True)
        _write_out(serialize_tripartite(q) + "\n",
                   os.path.join(args.out, f"sphere_g{args.g}_q.json"))
        _write_out(serialize_tripartite(qt) + "\n",
                   os.path.join(args.out, f"sphere_g{args.g}_qt.json"))
        n = max(q.parts)
        for name, dec in (("out", out_dec), ("in", in_dec)):
            lines = [str(n)] + [f"{a} {b} {c}" for a, b, c in dec]
            _write_out("\n".join(lines) + "\n",
                       os.path.join(args.out,
                                    f"sphere_g{args.g}_{name}_dec.txt"))
        print(f"g={args.g} new_vertices={len(sc.new_vertices)} "
              f"edges={len(sc.edges)} out={len(out_dec)} in={len(in_dec)}")
        return 0

    if args.what == "path-cover":
        sizes = _parse_sizes(args.sizes)
        if args.graph:
            l_edges = graph_edges(parse_tripartite(_read(args.graph)))
        else:
            l_edges = random_divisible_graph(sizes, args.cycles,
                                             RandomStream(args.seed))
        cover = cover_with_short_cycles(l_edges, sizes, mu=args.mu)
        payload = {
            "mu": cover.mu,
            "verified": cover.verified,
            "cycle_count": len(cover.cycles),
            "max_length": max((len(c) for c in cover.cycles), default=0),
            "cycles": [[[p, i] for p, i in cyc] for cyc in cover.cycles],
        }
        _write_out(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   args.out)
        return 0 if cover.verified else 1

    gadget = (reference_c3_gadget() if args.reference
              else gadget_search(args.h, aux_budget=args.aux_budget))
    payload = {
        "h": gadget.h_name,
        "parts": list(gadget.parts),
        "roots": [[p, i] for p, i in gadget.roots],
        "h_edges": [list(e) for e in gadget.h_edges],
        "gadget_edges": [list(e) for e in gadget.gadget_edges],
        "dec_gadget": [list(t) for t in gadget.dec_gadget],
        "dec_joint": [list(t) for t in gadget.dec_joint],
        "verified": gadget.verify(),
    }
    _write_out(json.dumps(payload, indent=2, sort_keys=True) + "\n",
               args.out)
    return 0


# ---------------------------------------------------------------------------
# experiment / report


def _experiment_ids(args) -> list[str]:
    """The experiments to run: the named one, or for ``all`` every
    experiment in name order, narrowed by --only and --skip."""
    if args.id != "all":
        if args.only is not None or args.skip:
            raise InputError("--only and --skip go with 'experiment all'")
        return [args.id]
    ids = args.only or sorted(EXPERIMENTS)
    unknown = [i for i in ids + args.skip if i not in EXPERIMENTS]
    if unknown:
        raise InputError(f"unknown experiment ids: {', '.join(unknown)}")
    return [i for i in ids if i not in args.skip]


def _cmd_experiment(args) -> int:
    overrides = {
        key: getattr(args, key)
        for key in ("n", "k", "g", "alpha", "samples", "seed")
        if getattr(args, key) is not None
    }
    pts = _parse_checkpoints(args.checkpoints)
    if pts:
        overrides["checkpoints"] = tuple(pts)
    if args.id == "all" and set(overrides) - {"seed"}:
        raise InputError("'experiment all' runs the default specs; "
                         "only --seed may be set")
    ids = _experiment_ids(args)
    all_ok = True
    for ident in ids:
        spec = make_spec(ident, out_dir=args.out, threads=args.threads,
                         **overrides)
        lines, ok = check_lines(run_experiment(spec))
        print("\n".join(lines))
        all_ok &= ok
    if args.id == "all":
        print(f"{'all checks passed' if all_ok else 'some checks failed'} "
              f"({len(ids)} experiments, results in {args.out}/)")
    return 0 if all_ok else 1


def _cmd_report(args) -> int:
    text, all_ok = report(args.dir)
    print(text)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latinlab",
        description="Counting, sampling, and decomposition experiments "
                    "on Latin squares.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_count = sub.add_parser("count", help="exact counts from files")
    p_count.add_argument("object",
                         choices=["intercalates", "cuboctahedra",
                                  "subsquares", "girth"])
    p_count.add_argument("files", nargs="+", metavar="FILE")
    p_count.add_argument("--k", type=int, default=2,
                         help="subsquare order (subsquares only)")
    p_count.add_argument("--max", type=int, default=12,
                         help="girth search cap (girth only)")
    p_count.add_argument("--format", choices=["csv", "json"], default="csv")
    p_count.add_argument("--out")
    p_count.set_defaults(fn=_cmd_count)

    p_sample = sub.add_parser("sample", help="random squares and rectangles")
    p_sample.add_argument("kind", choices=["square", "rectangle"])
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--k", type=int, help="rows (rectangle only)")
    p_sample.add_argument("--count", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--burnin", type=float,
                          help="burn-in in units of n^2 proper visits "
                          "(about n^3 moves; square only)")
    p_sample.add_argument("--out")
    p_sample.set_defaults(fn=_cmd_sample)

    p_process = sub.add_parser("process",
                               help="random triple-removal trajectories")
    p_proc_sub = p_process.add_subparsers(dest="what", required=True)
    p_run = p_proc_sub.add_parser("run")
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--m", type=int, help="step cap")
    p_run.add_argument("--g", type=int, default=0,
                       help="girth constraint, 0 or 6")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--checkpoints",
                       help="comma-separated steps to report (default all)")
    p_run.add_argument("--out", help="write the final system here")
    p_run.set_defaults(fn=_cmd_process)

    p_phi = sub.add_parser("phi", help="extremal cell-count bounds")
    p_phi.add_argument("--N", type=int, required=True,
                       help="intercalate target")
    p_phi.add_argument("--witness-out", help="witness file path")
    p_phi.add_argument("--out", help="JSON report path (default stdout)")
    p_phi.set_defaults(fn=_cmd_phi)

    p_boost = sub.add_parser("boost",
                             help="fractional-weight boosting on a host")
    p_boost.add_argument("--graph", required=True,
                         help="tripartite host, JSON")
    p_boost.add_argument("--triangles", required=True,
                         help="candidate triangles, triple-list format")
    p_boost.add_argument("--p", type=float, default=1.0)
    p_boost.add_argument("--q", type=float, default=1.0)
    p_boost.add_argument("--C", type=float, default=4.0)
    p_boost.add_argument("--iters", type=int)
    p_boost.add_argument("--seed", type=int, default=0)
    p_boost.add_argument("--force", action="store_true",
                         help="skip the regularity precondition check")
    p_boost.add_argument("--out", default=".",
                         help="directory for phi_star/selected/trace files")
    p_boost.set_defaults(fn=_cmd_boost)

    p_absorb = sub.add_parser("absorb", help="absorber building blocks")
    p_ab_sub = p_absorb.add_subparsers(dest="what", required=True)
    p_spheres = p_ab_sub.add_parser("spheres")
    p_spheres.add_argument("--g", type=int, default=6)
    p_spheres.add_argument("--out", default=".")
    p_spheres.set_defaults(fn=_cmd_absorb)
    p_pc = p_ab_sub.add_parser("path-cover")
    p_pc.add_argument("--sizes", default="4,4,4",
                      help="X part sizes, comma-separated")
    p_pc.add_argument("--cycles", type=int, default=6,
                      help="random cycles in L when --graph is absent")
    p_pc.add_argument("--mu", type=int, help="path multiplicity (even)")
    p_pc.add_argument("--graph", help="use this L instead of a random one")
    p_pc.add_argument("--seed", type=int, default=0)
    p_pc.add_argument("--out")
    p_pc.set_defaults(fn=_cmd_absorb)
    p_gadget = p_ab_sub.add_parser("gadget")
    p_gadget.add_argument("--h", default="C3", help="rooted cycle name")
    p_gadget.add_argument("--aux-budget", type=int, default=3)
    p_gadget.add_argument("--reference", action="store_true",
                          help="emit the hand-built A(C3) instead")
    p_gadget.add_argument("--out")
    p_gadget.set_defaults(fn=_cmd_absorb)

    p_exp = sub.add_parser("experiment",
                           help="run one named experiment, or all of them")
    p_exp.add_argument("id", help="experiment name, or 'all'")
    p_exp.add_argument("--only", nargs="*", metavar="ID",
                       help="with 'all': run only these experiments")
    p_exp.add_argument("--skip", nargs="*", default=[], metavar="ID",
                       help="with 'all': leave these experiments out")
    p_exp.add_argument("--n", type=int)
    p_exp.add_argument("--k", type=int)
    p_exp.add_argument("--g", type=int)
    p_exp.add_argument("--alpha", type=float)
    p_exp.add_argument("--samples", type=int)
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--checkpoints")
    p_exp.add_argument("--out", default=".",
                       help="result directory")
    p_exp.add_argument("--threads", type=int, default=1,
                       help="worker threads (default 1)")
    p_exp.set_defaults(fn=_cmd_experiment)

    p_report = sub.add_parser("report",
                              help="render pass/fail for stored results")
    p_report.add_argument("dir")
    p_report.set_defaults(fn=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
