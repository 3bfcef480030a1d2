"""Spans around selfsim's public functions, recorded from the benchmark side.

``install`` wraps every function in TARGETS under each selfsim module name it
is bound to (``selfsim.cli.build_scheme``, ``selfsim.spectral.build_scheme``
and ``selfsim.verify.build_scheme`` are one function imported three times),
so a call opens a span whichever module makes it.  A span is the list
``[name, parent, start, end, extra]``: ``parent`` is the index of the
enclosing span or -1, times are ``perf_counter`` seconds, and ``extra`` holds
counts read from the arguments and result after the span has ended.  Spans
stay in memory until the pass reports them.

``layer_metrics`` turns spans into the per-layer metrics, using self time:
a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import Counter
from pathlib import Path

# (defining module, attribute); "Class.method" is patched on the class.
TARGETS = (
    ("cli", "main"),
    ("cache", "load"),
    ("cache", "store"),
    ("wreath", "parse_presentation"),
    ("wreath", "generator_level_perms"),
    ("wreath", "WreathPresentation.reduce"),
    ("wreath", "act"),
    ("wreath", "section"),
    ("wreath", "level_permutation"),
    ("orbits", "orbit_transversal"),
    ("orbits", "suborbits_from_transversal"),
    ("scheme", "build_scheme"),
    ("scheme", "verify_scheme_axioms"),
    ("scheme", "OrbitalScheme.label"),
    ("scheme", "OrbitalScheme.label_column"),
    ("spectral", "intersection_matrices"),
    ("spectral", "common_eigensystem"),
    ("spectral", "dense_commutant_oracle"),
    ("spectral", "spectral_data"),
    ("verify", "run_verification"),
)

# Spans that record how far they raised the process's peak RSS.  tracemalloc
# would give a per-span peak directly, but it slows the word-heavy Schreier
# step about fivefold (binary-deep: 128 s against 24 s on a 2-vCPU Xeon VM).
MEMORY_SPANS = {"orbits.orbit_transversal", "orbits.suborbits_from_transversal",
                "scheme.build_scheme"}


def _store_bytes(args, _result) -> dict:
    directory, key = args[0], args[1]
    return {"bytes": (Path(directory) / f"{key}.json").stat().st_size}


EXTRAS = {
    "cli.main": lambda args, code: {"error": code != 0},
    "cache.load": lambda args, doc: {"hit": doc is not None},
    "cache.store": _store_bytes,
    "wreath.reduce": lambda args, word: {"letters": len(args[1]),
                                         "nonempty": len(word) > 0},
    "orbits.orbit_transversal": lambda args, tv: {
        "word_letters": sum(map(len, tv.words)), "perms_bytes": tv.perms.nbytes},
    "scheme.build_scheme": lambda args, scheme: {
        "label_table_bytes": 0 if scheme.labels is None else scheme.labels.nbytes},
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans = self.spans, self._open
        extra = EXTRAS.get(name)
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_spans[-1] if open_spans else -1, 0.0, 0.0, None]
            open_spans.append(len(spans))
            spans.append(span)
            rss_before = _maxrss_kb() if memory else 0
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_spans.pop()
            if extra is not None or memory:
                span[4] = extra(args, result) if extra is not None else {}
                if memory:
                    span[4]["rss_growth_kb"] = _maxrss_kb() - rss_before
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every target under every selfsim module that binds it."""
    modules = [m for key, m in list(sys.modules.items())
               if key == "selfsim" or key.startswith("selfsim.")]
    for module_name, attr in TARGETS:
        home = sys.modules[f"selfsim.{module_name}"]
        span_name = f"{module_name}.{attr.rpartition('.')[2]}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, method, tracer.wrap(span_name, getattr(cls, method)))
            continue
        original = getattr(home, attr)
        wrapped = tracer.wrap(span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


LAYER_UNITS = {
    "wreath.reduce_s": "s",
    "wreath.reduce_calls": "count",
    "wreath.reduce_letters": "count",
    "orbits.suborbits_s": "s",
    "orbits.word_letters": "count",
    "orbits.schreier_nonempty_ratio": "ratio",
    "orbits.transversal_s": "s",
    "wreath.level_perms_s": "s",
    "wreath.parse_s": "s",
    "scheme.build_self_s": "s",
    "scheme.axioms_s": "s",
    "orbits.perms_bytes": "bytes",
    "scheme.label_table_bytes": "bytes",
    "orbits.peak_mb": "MB",
    "scheme.peak_mb": "MB",
    "spectral.eigensystem_s": "s",
    "spectral.eigensystem_calls": "count",
    "spectral.intersection_s": "s",
    "spectral.dense_oracle_s": "s",
    "wreath.act_s": "s",
    "wreath.section_s": "s",
    "wreath.act_calls": "count",
    "scheme.label_s": "s",
    "scheme.label_calls": "count",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "cli.calls": "count",
    "cli.errors": "count",
    "cache.store_s": "s",
    "cache.load_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_written": "bytes",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in LAYER_UNITS."""
    covered = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: Counter = Counter()
    calls: Counter = Counter()
    sums: Counter = Counter()
    peaks: Counter = Counter()
    schreier = Counter()
    for i, (name, parent, start, end, extra) in enumerate(spans):
        self_s[name] += end - start - covered[i]
        calls[name] += 1
        for key, value in (extra or {}).items():
            sums[f"{name}.{key}"] += value
            peaks[f"{name}.{key}"] = max(peaks[f"{name}.{key}"], value)
        if name == "wreath.reduce" and parent >= 0 \
                and spans[parent][0] == "orbits.suborbits_from_transversal":
            schreier["calls"] += 1
            schreier["nonempty"] += extra["nonempty"]

    def peak_mb(*names: str) -> float:
        return max(peaks[f"{n}.rss_growth_kb"] for n in names) * 1024 / 1e6

    return {
        "wreath.reduce_s": self_s["wreath.reduce"],
        "wreath.reduce_calls": calls["wreath.reduce"],
        "wreath.reduce_letters": sums["wreath.reduce.letters"],
        "orbits.suborbits_s": self_s["orbits.suborbits_from_transversal"],
        "orbits.word_letters": sums["orbits.orbit_transversal.word_letters"],
        "orbits.schreier_nonempty_ratio":
            schreier["nonempty"] / schreier["calls"] if schreier["calls"] else 0.0,
        "orbits.transversal_s": self_s["orbits.orbit_transversal"],
        "wreath.level_perms_s": self_s["wreath.generator_level_perms"],
        "wreath.parse_s": self_s["wreath.parse_presentation"],
        "scheme.build_self_s": self_s["scheme.build_scheme"],
        "scheme.axioms_s": self_s["scheme.verify_scheme_axioms"],
        "orbits.perms_bytes": peaks["orbits.orbit_transversal.perms_bytes"],
        "scheme.label_table_bytes": peaks["scheme.build_scheme.label_table_bytes"],
        "orbits.peak_mb": peak_mb("orbits.orbit_transversal",
                                  "orbits.suborbits_from_transversal"),
        "scheme.peak_mb": peak_mb("scheme.build_scheme"),
        "spectral.eigensystem_s": self_s["spectral.common_eigensystem"],
        "spectral.eigensystem_calls": calls["spectral.common_eigensystem"],
        "spectral.intersection_s": self_s["spectral.intersection_matrices"],
        "spectral.dense_oracle_s": self_s["spectral.dense_commutant_oracle"],
        "wreath.act_s": self_s["wreath.act"],
        "wreath.section_s": self_s["wreath.section"],
        "wreath.act_calls": calls["wreath.act"],
        "scheme.label_s": self_s["scheme.label"] + self_s["scheme.label_column"],
        "scheme.label_calls": calls["scheme.label"] + calls["scheme.label_column"],
        "verify.self_s": self_s["verify.run_verification"],
        "cli.self_s": self_s["cli.main"],
        "cli.calls": calls["cli.main"],
        "cli.errors": sums["cli.main.error"],
        "cache.store_s": self_s["cache.store"],
        "cache.load_s": self_s["cache.load"],
        "cache.hits": sums["cache.load.hit"],
        "cache.misses": calls["cache.load"] - sums["cache.load.hit"],
        "cache.bytes_written": sums["cache.store.bytes"],
    }
