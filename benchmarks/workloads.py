"""The benchmark's four workloads and the correctness gate they pass through.

A workload is built from the benchmark seed alone: ``build`` generates
its inputs (the set-up that ``setup_s`` times) and returns the fixed list
of operations one pass runs.  Every call into latinlab goes through a
module attribute (``experiments.run_experiment``, ``counting.girth``,
``process.run_process``) so that the tracer in ``tracing.py`` can wrap it.

An operation fails when it raises, when one of its experiment checks
fails (designed-red checks excepted), when a designed-red check passes,
when one of the exact properties below fails, or when its output bytes
differ from the first pass run with the same seed, whatever the worker
count.  README.md says why each workload exists.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from latinlab import counting, experiments, extremal, process
from latinlab.core import validate
from latinlab.process import ProcessConfig
from latinlab.rng import substream
from latinlab.sampling import sample_squares

# Checks documented in docs/experiments.md as failing by design.  They
# are strict: one that starts passing is a failure.
DESIGNED_RED = {
    "boost-convergence": frozenset({"selected-per-edge-band"}),
}

# the cache on the extremal oracle would let every pass after the first
# skip the search that a fresh `latinlab experiment phi-table` pays for
_ORACLE = extremal.max_intercalates_oracle

# substream tags of the benchmark's own inputs, apart from the
# experiments' tags (11-71)
_TAG_MISS, _TAG_HITS, _TAG_G0 = 901, 902, 903

HIT_SQUARES = 4
MISS_ORDER = 24
# fewer samples would let the gstar band fail on a few percent of seeds
SPARSE_SAMPLES = 300

DIFFERS = "output bytes differ from the first pass"


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` is not.  ``check``
    returns the problems found and the bytes compared across passes."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[list[str], bytes]]


@dataclass
class Workload:
    workers: int
    ops: Callable[[int], list[Op]]   # worker count -> one pass
    known_workers: int | None = None  # extra comparison pass, if any


@dataclass
class PassResult:
    seconds: float                   # sum of the timed calls
    attempted: int
    failures: dict[str, list[str]]   # op name -> problems


def check_verdicts(experiment: str, checks: list[dict]) -> list[str]:
    """Problems in an experiment summary's checks under strict red rules."""
    red = DESIGNED_RED.get(experiment, frozenset())
    problems = []
    seen = set()
    for chk in checks:
        seen.add(chk["name"])
        if chk["name"] in red:
            if chk["passed"]:
                problems.append(f"designed-red check {chk['name']} passed "
                                f"(observed {chk['observed']})")
        elif not chk["passed"]:
            problems.append(f"check {chk['name']} failed: observed "
                            f"{chk['observed']}, band [{chk['low']}, "
                            f"{chk['high']}]")
    problems.extend(f"designed-red check {name} missing"
                    for name in sorted(red - seen))
    return problems


def experiment_bytes(spec: experiments.ExperimentSpec) -> bytes:
    """CSV bytes, then JSON bytes with the echoed worker count blanked:
    the summary repeats ``spec.threads``, everything else must match."""
    base = os.path.join(spec.out_dir, spec.experiment)
    with open(base + ".csv", "rb") as fh:
        csv_bytes = fh.read()
    with open(base + ".json", "rb") as fh:
        json_bytes = fh.read()
    summary = json.loads(json_bytes)
    summary["spec"]["threads"] = None
    blanked = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return csv_bytes + b"\0" + blanked.encode()


def experiment_op(name: str, seed: int, out_root: str, threads: int,
                  before: Callable[[], None] | None = None, **params) -> Op:
    spec = experiments.make_spec(
        name, seed=seed, threads=threads,
        out_dir=os.path.join(out_root, name), **params)

    def call():
        if before:
            before()
        return experiments.run_experiment(spec)

    def check(summary):
        return check_verdicts(name, summary["checks"]), experiment_bytes(spec)

    return Op(name, call, check)


def run_pass(ops: list[Op], refs: dict[str, bytes]) -> PassResult:
    """Run every op once; ``refs`` keeps each op's first output bytes."""
    seconds = 0.0
    failures: dict[str, list[str]] = {}
    for op in ops:
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op
            failures[op.name] = [f"raised {type(exc).__name__}: {exc}"]
            continue
        finally:
            seconds += perf_counter() - t0
        try:
            problems, out = op.check(result)
        except Exception as exc:  # so is one whose result is malformed
            failures[op.name] = [f"check raised {type(exc).__name__}: {exc}"]
            continue
        if refs.setdefault(op.name, out) != out:
            problems.append(DIFFERS)
        if problems:
            failures[op.name] = problems
    return PassResult(seconds, len(ops), failures)


@dataclass
class Measurement:
    plain: list[PassResult]
    traced: list[tuple[PassResult, list, list]]   # with spans and cubes
    known: PassResult | None

    @property
    def results(self) -> list[PassResult]:
        extra = [self.known] if self.known else []
        return extra + self.plain + [r for r, _, _ in self.traced]


def measure(wl: Workload, seconds: float, trace: bool) -> Measurement:
    """Passes until the next one would overrun ``seconds``.

    Untraced, at least one pass.  Traced, untraced and traced passes
    alternate, at least one of each.  Untraced ``chain-counts`` first
    makes its extra pass at the known worker count, which is also the
    reference for every later pass's output bytes."""
    refs: dict[str, bytes] = {}
    m = Measurement([], [], None)
    deadline = perf_counter() + seconds
    if wl.known_workers is not None and not trace:
        m.known = run_pass(wl.ops(wl.known_workers), refs)
    if trace:
        import tracing
        tracer = tracing.Tracer()
    longest = 0.0
    while True:
        t0 = perf_counter()
        if trace and len(m.plain) > len(m.traced):
            with tracing.instrument(tracer):
                res = run_pass(wl.ops(wl.workers), refs)
            m.traced.append((res, *tracer.take()))
        else:
            m.plain.append(run_pass(wl.ops(wl.workers), refs))
        longest = max(longest, perf_counter() - t0)
        if trace and not m.traced:
            continue
        if perf_counter() + longest > deadline:
            return m


# ---------------------------------------------------------------------------
# the workloads


def _chain_counts(seed: int, out_root: str) -> Workload:
    def ops(threads: int) -> list[Op]:
        return [
            experiment_op("intercalate-mean", seed, out_root, threads,
                          n=20, samples=80),
            experiment_op("cuboctahedra-scan", seed, out_root, threads,
                          samples=8),
            experiment_op("rectangle-poisson", seed, out_root, threads,
                          n=100, k=3, samples=3000),
        ]
    return Workload(2, ops, known_workers=1)


def _highgirth(seed: int, out_root: str) -> Workload:
    miss_input = process.run_process(
        MISS_ORDER, substream(seed, _TAG_MISS), ProcessConfig(girth=6)).placed
    squares = sample_squares(12, HIT_SQUARES, substream(seed, _TAG_HITS))
    expected = [6 if counting.count_intercalates(sq) else None
                for sq in squares]

    def check_miss(found):
        problems = [] if found is None else [f"miss returned {found}, "
                                             "not None"]
        return problems, repr(found).encode()

    def check_hits(found):
        problems = [f"square {i}: girth {f}, expected {e}"
                    for i, (f, e) in enumerate(zip(found, expected))
                    if f != e]
        return problems, repr(found).encode()

    def ops(threads: int) -> list[Op]:
        return [
            experiment_op("highgirth-coverage", seed, out_root, threads,
                          n=100, g=6),
            Op("girth-miss",
               lambda: counting.girth(miss_input, g_max=6), check_miss),
            Op("girth-hits",
               lambda: [counting.girth(sq, g_max=6) for sq in squares],
               check_hits),
        ]
    return Workload(1, ops)


def _sparse_systems(seed: int, out_root: str) -> Workload:
    def run_g0():
        return process.run_process(100, substream(seed, _TAG_G0),
                                   ProcessConfig(girth=0))

    def check_g0(res):
        problems = []
        report = validate(res.placed)
        if not report:
            problems.append(f"output is not a partial Latin square: "
                            f"{report}")
        if not res.steps == len(res.placed) == len(res.order):
            problems.append(f"steps {res.steps} but {len(res.placed)} "
                            f"placed, {len(res.order)} in order")
        if not res.stalled:
            problems.append("process ended before it stalled")
        return problems, res.order.tobytes()

    def ops(threads: int) -> list[Op]:
        return [
            experiment_op("gstar-cuboctahedra", seed, out_root, threads,
                          n=150, alpha=0.2, samples=SPARSE_SAMPLES),
            Op("process-g0", run_g0, check_g0),
        ]
    return Workload(1, ops)


def _boost_exact(seed: int, out_root: str) -> Workload:
    def ops(threads: int) -> list[Op]:
        return [
            experiment_op("boost-convergence", seed, out_root, threads, n=60),
            experiment_op("phi-table", seed, out_root, threads,
                          before=_ORACLE.cache_clear),
            experiment_op("absorber-demo", seed, out_root, threads),
        ]
    return Workload(1, ops)


WORKLOADS = {
    "chain-counts": _chain_counts,
    "highgirth": _highgirth,
    "sparse-systems": _sparse_systems,
    "boost-exact": _boost_exact,
}


def build(name: str, seed: int, out_root: str) -> Workload:
    """Generate the seeded inputs of one workload (the timed set-up)."""
    return WORKLOADS[name](seed, os.path.join(out_root, name))
