"""The benchmark's workloads: seeded job lists and the answers they must give.

A job is one ``selfsim`` command line, run with ``--json``.  Its expected
answer comes from the catalog's closed forms (``CatalogEntry.expected_rank``
and ``expected_degrees``), which the acceptance tests also pin.

Why these four workloads:

- ``binary-deep``: ``decompose`` on grigorchuk level 10 (N = 1024).  Nearly
  all time is the word-carrying Schreier step in ``orbits`` and its
  ``wreath`` reduction; memory is the N x N ``perms`` and label tables.
- ``ternary-deep``: ``decompose`` on gupta-sidki level 7 (N = 2187): a
  ternary tree, and ``t`` is not an involution.

  Both deep levels are the largest whose job takes about a second.  On a
  shared 2-vCPU host a run of one 5-25 s job (grigorchuk 11 or 12,
  gupta-sidki 8) holds two or three passes and its runs spread too widely
  to gate a change; a one-second job gives ten passes in a 25 s run.
- ``sweep``: every catalog group at small levels, through ``orbits``,
  ``scheme`` and ``decompose --nesting --oracle``, with a fresh cache
  directory so every cached command is a miss followed by a store.  Per-call
  overhead dominates.
- ``verify``: the randomized invariant suites with 100 cases each, dominated
  by the spectral seed-independence suite; the scheme is read, not only
  built.  100 cases rather than 200 give a run of 25 s about seven passes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from selfsim.catalog import builtin

BINARY = ("grigorchuk", "grigorchuk-tilde")
TERNARY = ("gamma", "gamma-bar", "gupta-sidki")
DENSE_ORACLE_POINTS = 243  # the CLI's dense oracle refuses larger levels
VERIFY_CASES = 100
VERIFY_LEVELS = (("grigorchuk", 8), ("grigorchuk-tilde", 8), ("gupta-sidki", 5),
                 ("gamma", 5), ("gamma-bar", 5))


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the facts its JSON answer must show."""

    argv: tuple[str, ...]
    expect: dict = field(compare=False)
    cached: bool = False  # run with the pass's fresh --cache-dir


def cli_seed(seed: int) -> int:
    """The CLI seed for a workload seed; the CLI needs a non-negative int."""
    return seed % (1 << 31)


def _job(command: str, group: str, level: int, seed: int, *flags: str,
         cached: bool = False, **expect) -> Job:
    entry = builtin(group)
    argv = (command, "--group", group, "--level", str(level),
            "--seed", str(cli_seed(seed)), "--json", *flags)
    facts = {"rank": entry.expected_rank(level), "points": entry.degree**level}
    return Job(argv, facts | expect, cached)


def _decompose(group: str, level: int, seed: int, *flags: str,
               cached: bool = False) -> Job:
    return _job("decompose", group, level, seed, *flags, cached=cached,
                degrees=builtin(group).expected_degrees(level))


def binary_deep(seed: int) -> list[Job]:
    return [_decompose("grigorchuk", 10, seed)]


def ternary_deep(seed: int) -> list[Job]:
    return [_decompose("gupta-sidki", 7, seed)]


def sweep(seed: int, binary_top: int = 6, ternary_top: int = 4) -> list[Job]:
    """Levels 1..binary_top (binary) and 1..ternary_top (ternary), shuffled by seed."""
    jobs = []
    for group in BINARY + TERNARY:
        degree = builtin(group).degree
        for level in range(1, (binary_top if degree == 2 else ternary_top) + 1):
            flags = ("--nesting",)
            if degree**level <= DENSE_ORACLE_POINTS:
                flags += ("--oracle",)
            jobs += [_job("orbits", group, level, seed),
                     _job("scheme", group, level, seed, cached=True),
                     _decompose(group, level, seed, *flags, cached=True)]
    random.Random(seed).shuffle(jobs)
    return jobs


def verify(seed: int) -> list[Job]:
    return [_job("verify", group, level, seed, "--cases", str(VERIFY_CASES),
                 cases=VERIFY_CASES)
            for group, level in VERIFY_LEVELS]


WORKLOADS = {
    "binary-deep": binary_deep,
    "ternary-deep": ternary_deep,
    "sweep": sweep,
    "verify": verify,
}


def check(job: Job, code: int, stdout: str) -> str | None:
    """None when the job exited 0 with the expected answer, else the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _check_doc(job, json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def _check_doc(job: Job, doc: dict) -> str | None:
    want = job.expect
    command = job.argv[0]
    if command == "orbits":
        blocks = doc["blocks"]
        if len(blocks) != want["rank"]:
            return f"{len(blocks)} suborbits, expected {want['rank']}"
        if sum(map(len, blocks)) != want["points"] or len(blocks[0]) != 1:
            return "blocks do not partition the level with the base alone first"
    elif command == "scheme":
        if doc["rank"] != want["rank"]:
            return f"rank {doc['rank']}, expected {want['rank']}"
        if doc["commutative"] is not True:
            return "scheme is not commutative"
        if sum(doc["valencies"]) != want["points"] or len(doc["p"]) != want["rank"]:
            return "valencies or p do not fit the level"
    elif command == "decompose":
        if doc["rank"] != want["rank"] or doc["degrees"] != want["degrees"]:
            return f"degrees {doc['degrees']}, expected {want['degrees']}"
        if doc["gelfand"] is not True:
            return "not a Gelfand pair"
        if "--nesting" in job.argv and doc["nested_in_next"] is not True:
            return "degrees do not nest in the next level"
        if "--oracle" in job.argv and doc["oracle_degrees"] != doc["degrees"]:
            return f"oracle degrees {doc['oracle_degrees']} differ"
    elif command == "verify":
        if doc["ok"] is not True:
            return "verify reported a failing suite"
        for suite in doc["suites"]:
            if suite["failures"] != 0 or suite["cases"] != want["cases"]:
                return f"suite {suite['name']}: {suite['failures']} failures " \
                       f"in {suite['cases']} cases"
    else:
        return f"no answer check for command {command!r}"
    return None
