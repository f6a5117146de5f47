"""Run one latinlab benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload highgirth --seed 0 --seconds 30 --trace 0

Run from the root of a latinlab source tree; the package is imported
from ``src/`` next to this directory, never from an installed copy.
With ``--trace 0`` the run times passes with tracing off and reports the
end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (environment, pass times,
failures) goes to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload's inputs, print 'ready', exit "
                         "(used to time set-up in a fresh process)")
    return ap.parse_args(argv)


def import_latinlab():
    """Import latinlab from this tree's src/; None if it is not there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import latinlab
    except ImportError:
        return None
    if not os.path.abspath(latinlab.__file__).startswith(src + os.sep):
        return None
    return latinlab


def environment(seed: int, workers: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "workers": workers,
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the tree's git checkout, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def time_setups(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up run failed: {' '.join(cmd)}")
        times.append(elapsed)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_latinlab() is None:
        print(f"latinlab sources not found under {ROOT}/src",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, OUT)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    m = workloads.measure(wl, args.seconds, bool(args.trace))
    rss = peak_rss_mb()

    results = m.results
    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.failures) for r in results)
    failures = [f"pass {i} {op}: {p}" for i, r in enumerate(results)
                for op, problems in r.failures.items() for p in problems]
    wall = statistics.median(r.seconds for r in m.plain)
    metrics: dict[str, tuple[float, str]] = {}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed, wl.workers),
        "untraced_pass_s": [r.seconds for r in m.plain],
    }
    if args.trace:
        import tracing

        stats = [tracing.PassStats(spans, cubes)
                 for _, spans, cubes in m.traced]
        metrics.update(tracing.layer_metrics(stats))
        traced_wall = statistics.median(r.seconds for r, _, _ in m.traced)
        metrics["trace_overhead"] = (traced_wall / wall, "ratio")
        record["traced_pass_s"] = [r.seconds for r, _, _ in m.traced]
        spans_path = os.path.join(
            OUT, args.workload, f"spans-seed{args.seed}.jsonl")
        tracing.write_spans(spans_path, [spans for _, spans, _ in m.traced])
        record["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        setups = time_setups(args.workload, args.seed)
        metrics["wall_s"] = (wall, "s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (rss, "MB")
        record["setup_runs_s"] = setups
        if m.known is not None:
            record["known_workers"] = {
                "workers": wl.known_workers,
                "pass_s": m.known.seconds,
                "vs_workers": wl.workers,
                "median_pass_s": wall,
                "outputs_identical": not any(
                    workloads.DIFFERS in problems
                    for r in m.plain for problems in r.failures.values()),
            }
    record.update({
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": failures,
    })
    os.makedirs(os.path.join(OUT, args.workload), exist_ok=True)
    record_path = os.path.join(
        OUT, args.workload, f"result-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    env = record["env"]
    print(f"workload {args.workload}  seed {args.seed}  workers {wl.workers}"
          f"  passes {len(m.plain)} untraced, {len(m.traced)} traced")
    print(f"env  cpu={env['cpu_model']!r} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} commit={env['commit']}")
    if m.known is not None:
        print(f"known result  {wl.known_workers} worker: {m.known.seconds:.3f} s"
              f"  vs {wl.workers} workers: {wall:.3f} s (median)")
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}")
    print(f"{'fail_frac':52s} {failed / attempted:14.6g} ratio"
          f"  ({failed} of {attempted} ops)")
    for line in failures:
        print(f"FAIL {line}")
    print(f"record {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
