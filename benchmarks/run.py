#!/usr/bin/env python3
"""selfsim benchmark: CLI workloads end to end, answers checked, traced layers.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads are defined in workloads.py.  A pass runs the workload's fixed job
list in one fresh child process (child.py) that imports selfsim from ./src
and calls ``selfsim.cli.main(argv)`` in-process; the deep workloads have one
job per list, so each deep job gets a process of its own.  Passes repeat,
one after another, while the next one still fits in ``--seconds`` (at least
one pass).
Each child's environment lacks SELFSIM_CACHE_DIR, and cached jobs get a fresh
``--cache-dir`` under .bench_tmp/, deleted after the pass.

``--trace 0`` reports the end-to-end metrics (E2E_UNITS).  The host's speed
drifts by up to 1.7x over minutes, so every child also times a fixed
reference workload between its jobs (reference.py), and the run's wall and
job times are scaled by REFERENCE_S over the mean reference time of the
passes: they read as seconds at the speed where the reference takes
REFERENCE_S.  Wall time is the mean pass, to match that mean; job latencies
are quantiles over the job list of each job's mean time; set-up time, from
spawning a child to ``import selfsim.cli`` returning, is the median over
every pass and SETUP_PROBES import-only children.  Peak RSS is the median
child's ``ru_maxrss``.  ``--trace 1`` alternates an untraced and a traced
pass and reports the per-layer metrics (tracing.LAYER_UNITS), medians over
traced passes in unscaled seconds, plus the tracing overhead: the median
difference of a traced pass and the untraced pass just before it, also
unscaled, so the host's drift shows in it.  Every job's answer is checked;
a wrong or failed job counts in ``failed`` and is not timed as a success.

The output is human-readable lines (metrics with units, error rate, a
machine note) and, last, one JSON line with the keys correct, attempted,
failed and metrics.  ``--out FILE`` also appends the full record to FILE as
one JSON line.  Without ./src/selfsim the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from reference import REFERENCE_S
from tracing import LAYER_UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
TMP = ROOT / ".bench_tmp"

SETUP_PROBES = 3  # import-only children before the passes
PASS_DEADLINE_S = 150.0  # no pass starts that the last one says ends later
CHILD_DEADLINE_S = 170.0  # a child still running then is killed
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.spans": "count"}


class PassFailed(Exception):
    pass


@dataclass
class PassResult:
    setup_s: float
    wall_s: float
    maxrss_kb: int
    job_s: list[float]
    problems: list[str | None]  # per job: None when the answer is right
    outputs: list[str]
    spans: list
    reference_s: list[float]


def _problem(job, done: dict) -> str | None:
    """Why a finished job counts as failed, or None if its answer is right."""
    from workloads import check

    problem = check(job, done["code"], done["out"])
    if problem is None:
        return None
    stderr = done["err"].strip().splitlines()
    return f"{' '.join(job.argv[:5])}: {problem}" + (f" [{stderr[-1]}]" if stderr else "")


def run_pass(jobs, trace: bool, deadline: float, cache_dir: Path | None) -> PassResult:
    """Run a job list in a fresh child; raise PassFailed if the child dies."""
    argvs = [list(job.argv) + (["--cache-dir", str(cache_dir)] if job.cached else [])
             for job in jobs]
    env = {k: v for k, v in os.environ.items() if k != "SELFSIM_CACHE_DIR"}
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD)], cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(json.dumps({"jobs": argvs, "trace": trace}),
                                    timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed("child timed out") from None
    if proc.returncode != 0:
        raise PassFailed(f"child exited {proc.returncode}: {err[-2000:]}")
    report = json.loads(out)
    if Path(report["module"]).resolve().parent != SRC / "selfsim":
        raise PassFailed(f"child imported selfsim from {report['module']}")
    done = report["jobs"]
    return PassResult(
        setup_s=report["imported_at"] - spawned,
        wall_s=report["wall_s"],
        maxrss_kb=report["maxrss_kb"],
        job_s=[j["s"] for j in done],
        problems=[_problem(job, j) for job, j in zip(jobs, done)],
        outputs=[j["out"] for j in done],
        spans=report["spans"],
        reference_s=report["reference_s"],
    )


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile q in [0, 1] of at least one value."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(jobs, seconds: float, trace: bool) -> dict:
    """Repeat passes inside a `seconds` window; return counts, metrics, samples.

    A pass (with --trace 1, an untraced and a traced pass) starts only if the
    longest pass so far would still end inside the window; the first always
    runs.  Untraced runs first spawn SETUP_PROBES import-only children.
    """
    start = time.monotonic()
    deadline = start + CHILD_DEADLINE_S
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    probes: list[PassResult] = []
    attempted = failed = 0
    notes: list[str] = []

    try:
        if not trace:
            probes.extend(run_pass([], False, deadline, None)
                          for _ in range(SETUP_PROBES))
        index = 0
        longest = 0.0
        alive = True
        while alive:
            began = time.monotonic()
            for traced_pass in ((False, True) if trace else (False,)):
                cache_dir = tmp / f"cache-{index}"
                index += 1
                attempted += len(jobs)
                try:
                    result = run_pass(jobs, traced_pass, deadline, cache_dir)
                except PassFailed as exc:
                    failed += len(jobs)
                    notes.append(str(exc))
                    alive = False
                    break
                finally:
                    shutil.rmtree(cache_dir, ignore_errors=True)
                failed += sum(p is not None for p in result.problems)
                notes += [p for p in result.problems if p is not None]
                (traced if traced_pass else plain).append(result)
            now = time.monotonic()
            longest = max(longest, now - began)
            alive = (alive and now + longest - start <= seconds
                     and now + longest < start + PASS_DEADLINE_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:  # another run still uses it
            pass

    return {"attempted": attempted, "failed": failed, "notes": notes,
            "metrics": (_layer(plain, traced) if trace else _e2e(plain, probes)),
            "passes": len(plain) + len(traced),
            "job_samples": sum(p is None for r in plain for p in r.problems),
            "samples": {"setup_s": [r.setup_s for r in probes + plain],
                        "wall_s": [r.wall_s for r in plain + traced],
                        "reference_s": [t for r in probes + plain + traced
                                        for t in r.reference_s]}}


def speed_scale(passes: list[PassResult]) -> float:
    """REFERENCE_S over the mean reference time of the passes' children.

    Multiplying a time by it gives seconds at the speed where the reference
    takes REFERENCE_S, which removes most of the host's drift (reference.py).
    A mean, not a median: a job's time sums the host's slowness over the
    seconds it runs, and the mean of the samples taken between jobs is the
    matching average; a median jumps whenever fast phases pass half the run.
    """
    return REFERENCE_S / statistics.mean(t for r in passes for t in r.reference_s)


def _clean(results: list[PassResult]) -> list[PassResult]:
    """Passes whose every answer was right; all passes if there are none."""
    ok = [r for r in results if all(p is None for p in r.problems)]
    return ok or results


def job_means(plain: list[PassResult]) -> list[float]:
    """Each job's mean time over the passes that answered it right."""
    means = []
    for i in range(len(plain[0].job_s)):
        times = [r.job_s[i] for r in plain if r.problems[i] is None]
        if times:
            means.append(statistics.mean(times))
    return means


def _e2e(plain: list[PassResult], probes: list[PassResult]) -> dict:
    if not plain:
        return {}
    scale = speed_scale(plain)
    jobs = job_means(plain) or [s for r in plain for s in r.job_s]
    return {
        "setup_s": statistics.median(r.setup_s for r in plain + probes) * scale,
        "wall_s": statistics.mean(r.wall_s for r in _clean(plain)) * scale,
        "job_s_p50": percentile(jobs, 0.5) * scale,
        "job_s_p90": percentile(jobs, 0.9) * scale,
        "peak_rss_mb": statistics.median(r.maxrss_kb for r in plain) * 1024 / 1e6,
    }


def _layer(plain: list[PassResult], traced: list[PassResult]) -> dict:
    if not plain or not traced:
        return {}
    per_pass = [layer_metrics(r.spans) for r in traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_s"] = statistics.median(  # passes alternate, so pair them
        t.wall_s - p.wall_s for p, t in zip(plain, traced))
    out["trace.spans"] = statistics.median(len(r.spans) for r in traced)
    return out


def machine_note() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 1e6,
        "blas_threads_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def main(argv=None, workloads=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (SRC / "selfsim" / "cli.py").is_file():
        print(f"error: no selfsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if workloads is None:
        from workloads import WORKLOADS as workloads
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads)}")

    jobs = workloads[args.workload](args.seed)
    run = measure(jobs, args.seconds, bool(args.trace))
    units = LAYER_UNITS | TRACE_UNITS if args.trace else E2E_UNITS
    metrics = {name: {"value": run["metrics"][name], "unit": unit}
               for name, unit in units.items() if name in run["metrics"]}
    result = {"correct": run["failed"] == 0 and len(metrics) == len(units),
              "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics}
    machine = machine_note()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {run['passes']}  jobs/pass {len(jobs)}")
    for name, metric in metrics.items():
        print(f"  {name:34} {metric['value']:14.6f} {metric['unit']}")
    if not args.trace:
        print(f"  {'job_s_samples':34} {run['job_samples']:14d} count")
    print(f"  {'error_rate':34} {run['failed'] / max(1, run['attempted']):14.6f} ratio"
          f"  ({run['failed']} of {run['attempted']} jobs)")
    for note in run["notes"][:5]:
        print(f"  failure: {note}")
    print("machine " + json.dumps(machine, sort_keys=True))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "passes": run["passes"], "job_samples": run["job_samples"],
                  "samples": run["samples"],
                  "machine": machine, "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
