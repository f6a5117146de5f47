"""Spans around latinlab's public functions, recorded from outside the package.

``instrument(tracer)`` replaces selected functions and methods with
wrappers that record one span per call: name, start, end, parent span,
thread, and a few counters read from arguments and return values.  Every
module attribute bound to a wrapped function is replaced, so calls made
through ``from .x import f`` aliases are caught too.  Nothing inside the
package changes; per-move code (``IncidenceCube.step``,
``RandomStream.randrange``) is never wrapped, and chain moves are read off
the cubes' own ``moves`` and ``proper_steps`` counters.

Spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the part of it that its child spans
cover; children of one span may overlap when they ran on pool threads.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
from dataclasses import dataclass
from time import perf_counter

from latinlab import (
    absorb,
    counting,
    experiments,
    extremal,
    fracdec,
    process,
    sampling,
)

MODULES = (absorb, counting, experiments, extremal, fracdec, process, sampling)

# p50/p90 need at least this many calls in one pass
MIN_CALLS_FOR_PERCENTILES = 100


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    attrs: dict | None


class Tracer:
    """In-memory span store; thread-safe for pool workers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cubes: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def call(self, name, fn, args, kwargs, parent=None, before=None,
             after=None):
        """Run ``fn`` inside a span.  ``before(args)`` returns a token
        handed to ``after(args, result, token)``, which returns the
        span's counters."""
        stack = self._stack()
        sid = next(self._ids)
        token = before(args) if before else None
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
        attrs = after(args, result, token) if after else None
        span = Span(sid, name, start, end,
                    stack[-1] if parent is None and stack else (parent or 0),
                    threading.get_ident(), attrs)
        with self._lock:
            self.spans.append(span)
        return result

    def take(self) -> tuple[list[Span], list]:
        """Hand over and forget the spans and cubes recorded so far."""
        with self._lock:
            spans, cubes = self.spans, self.cubes
            self.spans, self.cubes = [], []
        return spans, cubes


def _philox_words(rng) -> int:
    """64-bit words drawn so far from a RandomStream's Philox generator."""
    st = rng.generator.bit_generator.state
    counter = sum(int(v) << (64 * i)
                  for i, v in enumerate(st["state"]["counter"]))
    return 4 * counter + st["buffer_pos"]


def _wrapper(tracer, fn, name, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, before=before, after=after)
    return wrapper


def _girth_of(args):
    return {"girth": args[0].girth}


# (module holding the original, attribute, span name, before, after)
_TARGETS = (
    (experiments, "run_experiment", "experiments.run_experiment", None, None),
    (sampling, "sample_squares", "sampling.sample_squares", None, None),
    (sampling, "sample_rectangle", "sampling.sample_rectangle", None, None),
    (counting, "count_intercalates", "counting.count_intercalates",
     None, None),
    (counting, "count_cuboctahedra_total",
     "counting.count_cuboctahedra_total",
     None, lambda a, r, t: {"n": a[0].n}),
    (counting, "count_cuboctahedra_nondegenerate",
     "counting.count_cuboctahedra_nondegenerate", None, None),
    (counting, "girth", "counting.girth",
     None, lambda a, r, t: {"hit": r is not None}),
    (process, "run_process", "process.run_process",
     None, lambda a, r, t: {"girth": r.girth, "steps": r.steps}),
    (process, "sample_sparse_system", "process.sample_sparse_system",
     lambda a: _philox_words(a[2]),
     lambda a, r, t: {"words": _philox_words(a[2]) - t, "kept": len(r)}),
    (process, "collision_filter", "process.collision_filter",
     None, lambda a, r, t: {"in": len(a[0]), "out": len(r)}),
    (fracdec, "check_conditions", "fracdec.check_conditions", None, None),
    (fracdec, "adjust", "fracdec.adjust", None, None),
    (fracdec, "boost", "fracdec.boost", None, None),
    (extremal, "phi_report", "extremal.phi_report", None, None),
    (extremal, "max_intercalates_oracle", "extremal.max_intercalates_oracle",
     None, None),
    (absorb, "absorber_demo", "absorb.absorber_demo", None, None),
    (absorb, "cover_with_short_cycles", "absorb.cover_with_short_cycles",
     None, None),
    (absorb, "gadget_search", "absorb.gadget_search", None, None),
)

_METHODS = (
    (process.ProcessState, "place", "process.place", None,
     lambda a, r, t: _girth_of(a)),
    (process.ProcessState, "safe_candidates", "process.safe_candidates",
     None, lambda a, r, t: _girth_of(a)),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the traced calls through ``tracer`` until the block exits."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for home, attr, name, before, after in _TARGETS:
        orig = getattr(home, attr)
        wrapped = _wrapper(tracer, orig, name, before, after)
        for mod in MODULES:
            for alias, value in list(vars(mod).items()):
                if value is orig:
                    patch(mod, alias, wrapped)
    for cls, attr, name, before, after in _METHODS:
        patch(cls, attr, _wrapper(tracer, getattr(cls, attr), name,
                                  before, after))

    cube_cls = sampling.IncidenceCube

    def cube(square):
        c = cube_cls(square)
        with tracer._lock:
            tracer.cubes.append(c)
        return c

    patch(sampling, "IncidenceCube", cube)

    pool_map = experiments._pool_map

    def traced_pool_map(fn, args, threads):
        parent = tracer.current()

        def task(a):
            return tracer.call("experiments.task", fn, (a,), {}, parent=parent)

        return pool_map(task, args, threads)

    patch(experiments, "_pool_map", traced_pool_map)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-pass layer metrics


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end))
                             for c in children.get(s.id, ())):
            if hi <= reach:
                continue
            covered += hi - max(lo, reach)
            reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class PassStats:
    """Queries over the spans and chain cubes of one traced pass."""

    def __init__(self, spans: list[Span], cubes: list):
        self.selfs = self_times(spans)
        self.by_name: dict[str, list[Span]] = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)
        self.jm_moves = sum(c.moves for c in cubes)
        self.jm_proper = sum(c.proper_steps for c in cubes)

    def select(self, name, **attrs) -> list[Span]:
        return [s for s in self.by_name.get(name, ())
                if all(s.attrs[k] == v for k, v in attrs.items())]

    def self_s(self, name, **attrs) -> float:
        return sum(self.selfs[s.id] for s in self.select(name, **attrs))

    def calls(self, name, **attrs) -> int:
        return len(self.select(name, **attrs))

    def total(self, name, key, **attrs) -> int:
        return sum(s.attrs[key] for s in self.select(name, **attrs))

    def mean(self, name, **attrs) -> float:
        d = [s.end - s.start for s in self.select(name, **attrs)]
        return statistics.fmean(d) if d else 0.0

    def pct(self, q, name, **attrs) -> float:
        """q-th percentile of call durations; 0 below the call floor."""
        d = sorted(s.end - s.start for s in self.select(name, **attrs))
        if len(d) < MIN_CALLS_FOR_PERCENTILES:
            return 0.0
        return statistics.quantiles(d, n=100, method="inclusive")[q - 1]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# (metric name, unit, value from one pass); see README.md for which
# end-to-end metric each should move and on which workload
LAYER_METRICS = (
    ("sampling.sample_squares.self_s", "s",
     lambda p: p.self_s("sampling.sample_squares")),
    ("sampling.jm_moves", "count", lambda p: p.jm_moves),
    ("sampling.jm_ns_per_move", "ns",
     lambda p: 1e9 * _ratio(p.self_s("sampling.sample_squares"), p.jm_moves)),
    ("sampling.jm_proper_frac", "ratio",
     lambda p: _ratio(p.jm_proper, p.jm_moves)),
    ("sampling.sample_rectangle.self_s", "s",
     lambda p: p.self_s("sampling.sample_rectangle")),
    ("sampling.sample_rectangle.p50_us", "us",
     lambda p: 1e6 * p.pct(50, "sampling.sample_rectangle")),
    ("counting.count_intercalates.self_s", "s",
     lambda p: p.self_s("counting.count_intercalates")),
    ("counting.count_intercalates.p50_us", "us",
     lambda p: 1e6 * p.pct(50, "counting.count_intercalates")),
    ("counting.count_intercalates.p90_us", "us",
     lambda p: 1e6 * p.pct(90, "counting.count_intercalates")),
    ("counting.count_cuboctahedra_total.self_s", "s",
     lambda p: p.self_s("counting.count_cuboctahedra_total")),
    ("counting.count_cuboctahedra_total.n32.mean_ms", "ms",
     lambda p: 1e3 * p.mean("counting.count_cuboctahedra_total", n=32)),
    ("counting.count_cuboctahedra_nondegenerate.self_s", "s",
     lambda p: p.self_s("counting.count_cuboctahedra_nondegenerate")),
    ("counting.count_cuboctahedra_nondegenerate.p50_ms", "ms",
     lambda p: 1e3 * p.pct(50, "counting.count_cuboctahedra_nondegenerate")),
    ("counting.count_cuboctahedra_nondegenerate.p90_ms", "ms",
     lambda p: 1e3 * p.pct(90, "counting.count_cuboctahedra_nondegenerate")),
    ("counting.girth.miss.self_s", "s",
     lambda p: p.self_s("counting.girth", hit=False)),
    ("counting.girth.hit.mean_ms", "ms",
     lambda p: 1e3 * p.mean("counting.girth", hit=True)),
    ("process.run_process.g6.self_s", "s",
     lambda p: p.self_s("process.run_process", girth=6)),
    ("process.place.g6.self_s", "s",
     lambda p: p.self_s("process.place", girth=6)),
    ("process.place.g6.calls", "count",
     lambda p: p.calls("process.place", girth=6)),
    ("process.safe_candidates.g6.self_s", "s",
     lambda p: p.self_s("process.safe_candidates", girth=6)),
    ("process.safe_candidates.g6.calls", "count",
     lambda p: p.calls("process.safe_candidates", girth=6)),
    ("process.steps.g6", "count",
     lambda p: p.total("process.run_process", "steps", girth=6)),
    ("process.run_process.g0.self_s", "s",
     lambda p: p.self_s("process.run_process", girth=0)),
    ("process.place.g0.self_s", "s",
     lambda p: p.self_s("process.place", girth=0)),
    ("process.safe_candidates.g0.self_s", "s",
     lambda p: p.self_s("process.safe_candidates", girth=0)),
    ("process.safe_candidates.g0.calls", "count",
     lambda p: p.calls("process.safe_candidates", girth=0)),
    ("process.steps.g0", "count",
     lambda p: p.total("process.run_process", "steps", girth=0)),
    ("process.sample_sparse_system.self_s", "s",
     lambda p: p.self_s("process.sample_sparse_system")),
    ("process.sample_sparse_system.rng_words", "count",
     lambda p: p.total("process.sample_sparse_system", "words")),
    ("process.sparse_keep_frac", "ratio",
     lambda p: _ratio(p.total("process.sample_sparse_system", "kept"),
                      p.total("process.sample_sparse_system", "words"))),
    ("process.collision_filter.self_s", "s",
     lambda p: p.self_s("process.collision_filter")),
    ("process.collision_filter.survivor_frac", "ratio",
     lambda p: _ratio(p.total("process.collision_filter", "out"),
                      p.total("process.collision_filter", "in"))),
    ("fracdec.check_conditions.self_s", "s",
     lambda p: p.self_s("fracdec.check_conditions")),
    ("fracdec.adjust.calls", "count", lambda p: p.calls("fracdec.adjust")),
    ("fracdec.adjust.mean_ms", "ms",
     lambda p: 1e3 * p.mean("fracdec.adjust")),
    ("fracdec.boost.self_s", "s", lambda p: p.self_s("fracdec.boost")),
    ("extremal.phi_report.self_s", "s",
     lambda p: p.self_s("extremal.phi_report")),
    ("extremal.max_intercalates_oracle.self_s", "s",
     lambda p: p.self_s("extremal.max_intercalates_oracle")),
    ("absorb.absorber_demo.self_s", "s",
     lambda p: p.self_s("absorb.absorber_demo")),
    ("absorb.cover_with_short_cycles.self_s", "s",
     lambda p: p.self_s("absorb.cover_with_short_cycles")),
    ("absorb.gadget_search.self_s", "s",
     lambda p: p.self_s("absorb.gadget_search")),
    ("experiments.run_experiment.self_s", "s",
     lambda p: p.self_s("experiments.run_experiment")),
    ("experiments.task.mean_s", "s",
     lambda p: p.mean("experiments.task")),
)


def layer_metrics(passes: list[PassStats]) -> dict[str, tuple[float, str]]:
    """Median over passes of each per-pass layer metric."""
    return {name: (statistics.median(fn(p) for p in passes), unit)
            for name, unit, fn in LAYER_METRICS}


def write_spans(path: str, passes: list[list[Span]]) -> None:
    with open(path, "w") as fh:
        for i, spans in enumerate(passes):
            for s in spans:
                fh.write(json.dumps({
                    "pass": i, "id": s.id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "thread": s.thread,
                    "attrs": s.attrs}) + "\n")
