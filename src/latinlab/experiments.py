"""Experiment harness behind the CLI.

Every experiment is a pure function of its spec: a fixed master seed
fans out to per-chunk substreams keyed by constant tags and chunk
indices, and chunk structure never depends on the thread count, so
reruns reproduce outputs bit for bit.  Results land as a CSV of raw
rows plus a JSON summary that echoes the spec, embeds the acceptance
thresholds, and records pass/fail per check.  Column layouts are
documented in docs/experiments.md.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .absorb import (
    absorber_demo,
    cover_with_short_cycles,
    gadget_search,
    random_divisible_graph,
    sphere_cover,
    sphere_certificates_ok,
)
from .core import InputError
from .counting import (
    count_cuboctahedra_nondegenerate,
    count_cuboctahedra_total,
    count_intercalates,
    count_intercalates_each,
)
from .extremal import ORACLE_CELL_CAP, max_intercalates_oracle, phi_report
from .fracdec import RegParams, boost, conforming_instance
from .process import (
    ProcessConfig,
    collision_filter,
    log_density_target,
    predicted_available,
    run_process,
    sample_sparse_system,
)
from .rng import substream
from .sampling import autocorrelation_time, sample_rectangles, sample_squares


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines one run, output location included."""

    experiment: str
    n: int | None = None
    k: int | None = None
    g: int | None = None
    alpha: float | None = None
    samples: int | None = None
    seed: int = 0
    checkpoints: tuple[int, ...] = ()
    threads: int = 1
    out_dir: str = "."


@dataclass(frozen=True)
class Check:
    name: str
    observed: float
    low: float | None
    high: float | None

    @property
    def passed(self) -> bool:
        if math.isnan(self.observed):
            return False
        return ((self.low is None or self.observed >= self.low)
                and (self.high is None or self.observed <= self.high))

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "observed": self.observed,
            "low": self.low,
            "high": self.high,
            "passed": self.passed,
        }


# the spec fields each experiment reads, with their defaults; seed,
# threads and out_dir are read by every experiment
_DEFAULTS: dict[str, dict] = {
    "intercalate-mean": {"n": 20, "samples": 2000},
    "rectangle-poisson": {"n": 100, "k": 3, "samples": 5000},
    "cuboctahedra-scan": {"samples": 200},
    "trp-trajectory": {"n": 100, "checkpoints": ()},
    "highgirth-coverage": {"n": 100, "g": 6},
    "gstar-cuboctahedra": {"n": 150, "alpha": 0.2, "samples": 500},
    "phi-table": {"n": 12},
    "boost-convergence": {"n": 30},
    "absorber-demo": {"g": 6, "samples": 20},
}


# the least value of each integer setting; the library checks the rest
# (k <= n, alpha / n a probability, the supported girths).  The
# intercalate standard error needs two draws, and the boosting instance
# removes three Latin layers from K_{n,n,n}.
_LEAST = {"n": 1, "k": 1, "samples": 1, "seed": 0, "threads": 1}
_LEAST_FOR = {("intercalate-mean", "samples"): 2,
              ("boost-convergence", "n"): 4}


def make_spec(experiment: str, **overrides) -> ExperimentSpec:
    """Spec with per-experiment defaults; None overrides are ignored.

    An override the experiment does not read, an integer setting below
    its least value (``_LEAST``) or a negative checkpoint raises
    InputError."""
    if experiment not in _DEFAULTS:
        raise InputError(f"unknown experiment {experiment!r}")
    params = dict(_DEFAULTS[experiment])
    given = {k: v for k, v in overrides.items() if v is not None}
    unread = sorted(set(given) - set(params) - {"seed", "threads", "out_dir"})
    if unread:
        raise InputError(f"{experiment} does not take {', '.join(unread)}")
    for key, value in given.items():
        least = _LEAST_FOR.get((experiment, key), _LEAST.get(key))
        if least is not None and value < least:
            raise InputError(f"{experiment} needs {key} >= {least}, "
                             f"got {value}")
    if any(t < 0 for t in given.get("checkpoints", ())):
        raise InputError("checkpoints must be nonnegative")
    params.update(given)
    return ExperimentSpec(experiment=experiment, **params)


def _chunk_counts(total: int, chunks: int) -> list[int]:
    base, extra = divmod(total, chunks)
    return [base + (1 if c < extra else 0) for c in range(chunks)]


def _pool_map(fn, args, threads: int) -> list:
    args = list(args)
    if threads <= 1:
        return [fn(a) for a in args]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, args))


def _chunked_draws(spec: ExperimentSpec, tag: int, chunks: int, draw):
    """Split spec.samples over ``chunks`` and run ``draw(count, rng)`` on
    each, with rng the chunk's substream (seed, tag, chunk), through the
    pool.  Returns the per-chunk value lists, the (chunk, draw, value)
    rows and the values as a float array."""
    counts = _chunk_counts(spec.samples, chunks)

    def one(c: int) -> list:
        return draw(counts[c], substream(spec.seed, tag, c))

    per_chunk = _pool_map(one, range(chunks), spec.threads)
    rows = [(c, d, v)
            for c, vals in enumerate(per_chunk) for d, v in enumerate(vals)]
    return per_chunk, rows, np.array([r[2] for r in rows], dtype=float)


# ---------------------------------------------------------------------------
# the experiments


def _exp_intercalate_mean(spec: ExperimentSpec):
    n = spec.n
    per_chain, rows, vals = _chunked_draws(
        spec, 11, 8,
        lambda m, rng: count_intercalates_each(sample_squares(n, m, rng)))
    target = n * n / 4
    checks = [Check("mean-intercalates", float(vals.mean()),
                    0.85 * target, 1.15 * target)]
    extra = {
        "target": target,
        "stderr": float(vals.std(ddof=1) / math.sqrt(len(vals))),
        "tau_int": autocorrelation_time(per_chain),
    }
    return ["chain", "draw", "intercalates"], rows, checks, extra


def _exp_rectangle_poisson(spec: ExperimentSpec):
    k, n = spec.k, spec.n
    _, rows, vals = _chunked_draws(
        spec, 23, 16,
        lambda m, rng: count_intercalates_each(sample_rectangles(k, n, m, rng)))
    lam = k * (k - 1) / 4
    support = range(9)
    emp = np.array([(vals == j).mean() for j in support])
    poi = np.array([math.exp(-lam) * lam**j / math.factorial(j)
                    for j in support])
    tvd = 0.5 * float(np.abs(emp - poi).sum())
    checks = [
        Check("mean-intercalates", float(vals.mean()), 0.9 * lam, 1.1 * lam),
        Check("tvd-to-poisson", tvd, None, 0.05),
    ]
    extra = {
        "lambda": lam,
        "histogram": {str(j): int((vals == j).sum()) for j in support},
    }
    return ["chunk", "draw", "intercalates"], rows, checks, extra


_SCAN_ORDERS = (8, 16, 24, 32)


def _exp_cuboctahedra_scan(spec: ExperimentSpec):
    chains = 4
    tasks = [(n, c) for n in _SCAN_ORDERS for c in range(chains)]

    def one(task: tuple[int, int]) -> list[tuple]:
        n, c = task
        counts = _chunk_counts(spec.samples, chains)
        rng = substream(spec.seed, 37, n, c)
        out = []
        for d, sq in enumerate(sample_squares(n, counts[c], rng)):
            total = count_cuboctahedra_total(sq)
            out.append((n, c, d, total, total / n**4))
        return out

    rows = [r for chunk in _pool_map(one, tasks, spec.threads) for r in chunk]
    checks = []
    means, taus = {}, {}
    for n in _SCAN_ORDERS:
        ratios = [r[4] for r in rows if r[0] == n]
        means[n] = float(np.mean(ratios))
        checks.append(Check(f"mean-ratio-n{n}", means[n], 3.0, 6.0))
        taus[str(n)] = autocorrelation_time(
            [[r[3] for r in rows if r[:2] == (n, c)] for c in range(chains)])
    drift = abs(means[_SCAN_ORDERS[0]] - 4.0) - abs(means[_SCAN_ORDERS[-1]] - 4.0)
    checks.append(Check("ratio-approaches-4", drift, 0.0, None))
    extra = {"mean_ratio": {str(n): means[n] for n in _SCAN_ORDERS},
             "tau_int": taus}
    return ["n", "chain", "draw", "total", "ratio"], rows, checks, extra


def _exp_trp_trajectory(spec: ExperimentSpec):
    n = spec.n
    cps = list(spec.checkpoints) or [round((i + 1) * 0.08 * n * n)
                                     for i in range(10)]
    # one step past the last checkpoint records the count after it
    cfg = ProcessConfig(girth=0, max_steps=max(cps) + 1)
    res = run_process(n, substream(spec.seed, 41), cfg)
    rows, checks = [], []
    for t in cps:
        model = predicted_available(n, t, girth=6)
        if t < len(res.available_trace):
            avail = int(res.available_trace[t])
            ratio = avail / model
        else:
            avail, ratio = -1, float("nan")
        rows.append((t, avail, model, ratio))
        checks.append(Check(f"available-ratio-t{t}", ratio, 0.95, 1.05))
    extra = {
        "model": "n^3 (1 - t/n^2)^3 exp(-(t/n^2)^3)",
        "steps": res.steps,
    }
    return ["t", "available", "predicted", "ratio"], rows, checks, extra


def _exp_highgirth_coverage(spec: ExperimentSpec):
    n, g = spec.n, spec.g
    res = run_process(n, substream(spec.seed, 43), ProcessConfig(girth=g))
    rows = [(t, int(v)) for t, v in enumerate(res.trace)]
    measured = res.log_density()
    model = res.model_log_density()
    target = log_density_target(n)
    intercalates = count_intercalates(res.placed)
    checks = [
        Check("coverage", res.coverage, 0.9, None),
        Check("intercalates", float(intercalates), 0.0, 0.0),
        Check("log-density-gap", abs(measured - model), None, 0.02 * target),
    ]
    extra = {
        "steps": res.steps,
        "log_density": measured,
        "log_density_model_truncated": model,
        "log_density_target_full": target,
    }
    return ["t", "candidates"], rows, checks, extra


def _exp_gstar_cuboctahedra(spec: ExperimentSpec):
    n, alpha = spec.n, spec.alpha

    def draw(m: int, rng) -> list[int]:
        return [count_cuboctahedra_nondegenerate(
                    collision_filter(sample_sparse_system(n, alpha, rng)))
                for _ in range(m)]

    _, rows, vals = _chunked_draws(spec, 53, 25, draw)
    target = math.exp(-24 * alpha) * alpha**8 * n**4
    checks = [Check("mean-nondegenerate", float(vals.mean()),
                    0.8 * target, 1.2 * target)]
    extra = {"target": target}
    return ["chunk", "trial", "nondegenerate"], rows, checks, extra


def _exp_phi_table(spec: ExperimentSpec):
    rows = []
    worst_upper = 0.0
    for big_n in range(1, spec.n + 1):
        rec = phi_report(big_n)
        rows.append((big_n, rec.lower_bound, rec.upper_bound,
                     "" if rec.exact is None else rec.exact,
                     rec.ratio_lower, rec.ratio_upper))
        worst_upper = max(worst_upper, rec.ratio_upper)
    oracle = [max_intercalates_oracle(m)[0]
              for m in range(ORACLE_CELL_CAP + 1)]
    lower_le_upper = all(r[1] <= r[2] for r in rows)
    checks = [
        Check("oracle-m3", float(oracle[3]), 0.0, 0.0),
        Check("oracle-m4", float(oracle[4]), 1.0, 1.0),
        Check("phi-of-1", float(rows[0][3]), 4.0, 4.0),
        Check("lower-le-upper", float(lower_le_upper), 1.0, 1.0),
        Check("worst-upper-ratio", worst_upper, None, 4.5),
    ]
    extra = {"max_intercalates": {str(m): v for m, v in enumerate(oracle)}}
    header = ["N", "lower", "upper", "exact", "ratio_lower", "ratio_upper"]
    return header, rows, checks, extra


def _exp_boost_convergence(spec: ExperimentSpec):
    n = spec.n
    tset = conforming_instance(n)
    q = (n - 3) / n
    params = RegParams(p=1.0, q=q)
    res = boost(tset, params, substream(spec.seed, 61))
    rows = [(t.iteration, t.max_disc, t.vertex_residual) for t in res.trace]
    discs = [t.max_disc for t in res.trace]
    growth = max((discs[i + 1] - discs[i] for i in range(len(discs) - 1)),
                 default=0.0)
    edge_target = params.p**2 * q * n / 4
    per_edge = _selected_per_edge(tset, res.chosen)
    in_band = float(np.mean((per_edge >= 0.9 * edge_target)
                            & (per_edge <= 1.1 * edge_target)))
    checks = [
        Check("beta", res.beta, 4.0 - 1e-9, 4.0 + 1e-9),
        Check("final-max-disc", res.trace[-1].max_disc, None, 1e-9),
        Check("trace-monotone", growth, None, 1e-12),
        Check("selected-per-edge-band", in_band, 1.0, 1.0),
    ]
    extra = {
        "iterations": len(res.trace),
        "edge_target": edge_target,
        "selected": int(res.chosen.sum()),
        "per_edge_min": float(per_edge.min()),
        "per_edge_mean": float(per_edge.mean()),
        "per_edge_max": float(per_edge.max()),
    }
    return ["iter", "max_disc", "vertex_residual"], rows, checks, extra


def _selected_per_edge(tset, chosen: np.ndarray) -> np.ndarray:
    """Triangles-per-host-edge counts of the sampled family."""
    sub = tset.tris[np.asarray(chosen, dtype=bool)]
    n = tset.n
    return np.concatenate([
        np.bincount(sub[:, ci] * n + sub[:, cj],
                    minlength=n * n).reshape(n, n)[tset.adj(k)]
        for k, (ci, cj) in enumerate(((0, 1), (1, 2), (2, 0)))])


def _exp_absorber_demo(spec: ExperimentSpec):
    g = spec.g
    demo = absorber_demo(g)
    rows = [(c.label, c.blocks, int(c.cover_ok),
             "" if c.girth_found is None else c.girth_found)
            for c in demo.cases]
    spheres_ok = all(sphere_certificates_ok(sphere_cover(gg))
                     for gg in range(2, 11))
    gadget = gadget_search("C3")
    pipelines = 0
    mus = []
    for trial in range(spec.samples):
        rng = substream(spec.seed, 71, trial)
        l_edges = random_divisible_graph((4, 4, 4), 6, rng)
        res = cover_with_short_cycles(l_edges, (4, 4, 4))
        if res.verified and max((len(c) for c in res.cycles), default=3) <= 9:
            pipelines += 1
        mus.append(res.mu)
    checks = [
        Check("demo-ok", float(demo.ok), 1.0, 1.0),
        Check("sphere-certificates", float(spheres_ok), 1.0, 1.0),
        Check("gadget-verified", float(gadget.verify()), 1.0, 1.0),
        Check("pipelines-exact", float(pipelines),
              float(spec.samples), float(spec.samples)),
    ]
    extra = {
        "gadget_aux": sum(gadget.parts) - len(gadget.roots),
        "mu_used": sorted(set(mus)),
    }
    return ["case", "blocks", "cover_ok", "girth_found"], rows, checks, extra


EXPERIMENTS = {
    "intercalate-mean": _exp_intercalate_mean,
    "rectangle-poisson": _exp_rectangle_poisson,
    "cuboctahedra-scan": _exp_cuboctahedra_scan,
    "trp-trajectory": _exp_trp_trajectory,
    "highgirth-coverage": _exp_highgirth_coverage,
    "gstar-cuboctahedra": _exp_gstar_cuboctahedra,
    "phi-table": _exp_phi_table,
    "boost-convergence": _exp_boost_convergence,
    "absorber-demo": _exp_absorber_demo,
}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute, write <out_dir>/<experiment>.{csv,json}, return the
    summary."""
    fn = EXPERIMENTS.get(spec.experiment)
    if fn is None:
        raise InputError(f"unknown experiment {spec.experiment!r}")
    os.makedirs(spec.out_dir, exist_ok=True)
    header, rows, checks, extra = fn(spec)

    csv_path = os.path.join(spec.out_dir, spec.experiment + ".csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    summary = {
        "schema": 1,
        "version": __version__,
        "experiment": spec.experiment,
        "spec": {k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in asdict(spec).items()},
        "checks": [c.as_dict() for c in checks],
        "extra": extra,
        "rows_csv": os.path.basename(csv_path),
    }
    with open(os.path.join(spec.out_dir, spec.experiment + ".json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def load_summaries(result_dir: str) -> list[dict]:
    if not os.path.isdir(result_dir):
        raise FileNotFoundError(f"no such directory: {result_dir}")
    names = sorted(f for f in os.listdir(result_dir) if f.endswith(".json"))
    if not names:
        raise FileNotFoundError(f"no result summaries in {result_dir}")
    out = []
    for name in names:
        with open(os.path.join(result_dir, name)) as fh:
            out.append(json.load(fh))
    return out


def check_lines(summary: dict) -> tuple[list[str], bool]:
    """Pass/fail rows for one summary; the flag is True iff every check
    passed."""
    lines = []
    all_ok = True
    for chk in summary.get("checks", []):
        ok = bool(chk.get("passed"))
        all_ok &= ok
        lo = "" if chk.get("low") is None else format(chk["low"], ".6g")
        hi = "" if chk.get("high") is None else format(chk["high"], ".6g")
        lines.append(
            f"{'PASS' if ok else 'FAIL'}  "
            f"{summary.get('experiment', '?'):24s} "
            f"{chk['name']:28s} "
            f"observed={format(chk['observed'], '.6g'):>14s} "
            f"band=[{lo}, {hi}]")
    return lines, all_ok


def report(result_dir: str) -> tuple[str, bool]:
    """Render pass/fail rows for every summary in a directory."""
    summaries = load_summaries(result_dir)
    lines = []
    all_ok = True
    for summary in summaries:
        rows, ok = check_lines(summary)
        lines.extend(rows)
        all_ok &= ok
    return "\n".join(lines), all_ok
