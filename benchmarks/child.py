"""One benchmark pass: import selfsim, run a job list in-process, report.

Reads ``{"jobs": [argv, ...], "trace": bool}`` as JSON on stdin and writes
one JSON report to stdout.  ``imported_at`` is ``time.monotonic()`` right
after ``import selfsim.cli``, so the parent can time set-up from spawn.
With ``trace`` true the public functions are wrapped first (see tracing.py)
and the recorded spans are part of the report.  ``reference_s`` holds the
times of reference.reference(), run twice before the jobs, after any job
that ends REFERENCE_EVERY_S or more after the last sample, and twice after
the jobs; it is not part of ``wall_s``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import selfsim.cli  # noqa: E402  set-up ends when this import returns

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from reference import reference  # noqa: E402

REFERENCE_EVERY_S = 0.5


def run_job(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = selfsim.cli.main(argv)
        except Exception:  # a traceback is a failed job, not a failed pass
            traceback.print_exc()
            code = -1
    seconds = time.perf_counter() - start
    return {"code": code, "s": seconds, "out": out.getvalue(),
            "err": err.getvalue()[-2000:]}


def main() -> None:
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    samples = [reference(), reference()]
    jobs = []
    since = 0.0
    for argv in spec["jobs"]:
        jobs.append(run_job(argv))
        since += jobs[-1]["s"]
        if since >= REFERENCE_EVERY_S:
            samples.append(reference())
            since = 0.0
    samples += [reference(), reference()]
    json.dump({
        "imported_at": IMPORTED_AT,
        "module": selfsim.cli.__file__,
        "wall_s": sum(job["s"] for job in jobs),
        "reference_s": samples,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": jobs,
        "spans": tracer.spans if tracer else [],
    }, sys.stdout)


if __name__ == "__main__":
    main()
