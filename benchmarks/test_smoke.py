"""Smoke self-test of the benchmark on small levels (<= 4).

    python3 -m pytest benchmarks
"""

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def small(seed):
    return workloads.sweep(seed, binary_top=4, ternary_top=4) + [
        workloads._job("verify", "gamma", 3, seed, "--cases", "20", cases=20)]


def tampered(seed):
    """small() with one wrong expected degree list."""
    jobs = small(seed)
    i = next(i for i, job in enumerate(jobs) if job.argv[0] == "decompose")
    jobs[i] = replace(jobs[i], expect=jobs[i].expect | {"degrees": [1]})
    return jobs


def bench(trace, workload="small", seed=1):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
            "--trace", str(trace)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(argv, {"small": small, "tampered": tampered})
    assert code == 0
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def declared(kind):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def assert_emitted(lines, result, units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if line.startswith("  ")}
    for name, unit in units.items():
        assert printed.get(name) == unit


def test_end_to_end_metrics_are_emitted_with_units():
    lines, result = bench(trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(small(1))
    assert_emitted(lines, result, declared("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_metrics_are_emitted_with_units():
    lines, result = bench(trace=1)
    assert result["correct"]
    assert_emitted(lines, result, declared("per_layer"))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["cli.calls"] == len(small(1))
    assert metrics["cache.misses"] > 0 and metrics["cache.hits"] == 0
    assert metrics["wreath.act_calls"] > 0 and metrics["scheme.label_calls"] > 0
    assert 0 < metrics["orbits.schreier_nonempty_ratio"] <= 1


def test_wrong_answer_counts_in_error_rate():
    lines, result = bench(trace=0, workload="tampered")
    attempted = len(small(1))
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (attempted, 1)
    line = next(line for line in lines if line.split()[0] == "error_rate")
    assert float(line.split()[1]) == round(1 / attempted, 6)
    assert line.endswith(f"(1 of {attempted} jobs)")


def test_answers_do_not_depend_on_seed(tmp_path):
    answers = []
    for seed in (1, 2):
        jobs = small(seed)
        done = run.run_pass(jobs, False, time.monotonic() + 120, tmp_path / str(seed))
        assert done.problems == [None] * len(jobs)
        assert len(done.reference_s) >= 4 and min(done.reference_s) > 0
        by_job = {}
        for job, out in zip(jobs, done.outputs):
            doc = json.loads(out)
            argv = list(job.argv)
            del argv[argv.index("--seed"):argv.index("--seed") + 2]
            key = tuple(argv)
            by_job[key] = {k: doc.get(k) for k in ("blocks", "p", "degrees")}
        answers.append(by_job)
    assert answers[0] == answers[1]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
