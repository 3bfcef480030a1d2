"""Randomized invariant suites tying the algebra back to the tree action.

Each suite draws its cases as arrays, _CASE_BLOCK at a time (word lengths,
generator picks and sign bits; vertex levels and digits; point and class
pairs; the seed-independence suite's seeds), and checks them one by one.
The seed suite solves each block of seeds in one ``common_eigensystems``
call, whose byte budget alone bounds the solve's memory.  The label suite
moves a case's two points by ``act``, so it builds nothing N-sized per
case.  The seed fixes every suite's cases, block by block: one generator
serves the suites in their fixed order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .scheme import build_scheme, is_commutative
from .spectral import (DEFAULT_SEED, common_eigensystems, intersection_matrices,
                       multiplicities)
from .tree import DEFAULT_LEVEL_CAP, Ray, Vertex
from .wreath import Word, WreathPresentation, act, section

DEFAULT_CASES = 200
_WORD_LEN = 10
_VERTEX_LEVEL = 6
_SECTION_LEVEL = 3
# Cases drawn at once: the draw arrays stay this long whatever --cases is.
_CASE_BLOCK = 1024


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _split(items: list, lengths: np.ndarray) -> list[tuple]:
    """Consecutive runs of items, one of each length."""
    ends = np.cumsum(lengths).tolist()
    return [tuple(items[a:b]) for a, b in zip([0, *ends], ends)]


def _random_words(rng: np.random.Generator, pres: WreathPresentation,
                  count: int) -> list[Word]:
    """count words of 0.._WORD_LEN uniform letters; a declared involution
    always carries sign +1, any other generator +1 or -1 with even odds."""
    names = pres.generator_names
    # letter 2g + b is generator g with sign bit b; an involution ignores b
    table = [(name, 1 if b == 0 or name in pres.involutions else -1)
             for name in names for b in (0, 1)]
    lengths = rng.integers(0, _WORD_LEN + 1, count)
    total = int(lengths.sum())
    picks = 2 * rng.integers(len(names), size=total) + rng.integers(2, size=total)
    return [Word(letters) for letters in _split([table[i] for i in picks.tolist()], lengths)]


def _random_vertices(rng: np.random.Generator, degree: int, max_level: int,
                     count: int) -> list[Vertex]:
    """count vertices of uniform level 0..max_level with uniform digits."""
    levels = rng.integers(0, max_level + 1, count)
    digits = rng.integers(1, degree + 1, int(levels.sum())).tolist()
    return [Vertex(letters, degree) for letters in _split(digits, levels)]


def _run_cases(name: str, cases: int, draw, check) -> SuiteResult:
    """Count the cases whose ``check(*case)`` names a problem, keeping the
    first problem; ``draw(k)`` gives k cases, asked for _CASE_BLOCK at a time."""
    failures = 0
    detail = ""
    for lo in range(0, cases, _CASE_BLOCK):
        for case in draw(min(_CASE_BLOCK, cases - lo)):
            problem = check(*case)
            if problem:
                failures += 1
                if not detail:
                    detail = problem
    return SuiteResult(name, cases, failures, detail)


def _action_compatibility(pres, rng, cases):
    def draw(k):
        return zip(_random_words(rng, pres, k), _random_words(rng, pres, k),
                   _random_vertices(rng, pres.degree, _VERTEX_LEVEL, k))

    def check(u, v, x):
        lhs = act(pres, u * v, x)
        rhs = act(pres, u, act(pres, v, x))
        if lhs != rhs:
            return f"act({u} * {v}, {x}) = {lhs} but stepwise gives {rhs}"
        return ""
    return _run_cases("action_compatibility", cases, draw, check)


def _cocycle_identity(pres, rng, cases):
    def draw(k):
        return zip(_random_words(rng, pres, k),
                   _random_vertices(rng, pres.degree, _SECTION_LEVEL, k),
                   _random_vertices(rng, pres.degree, _SECTION_LEVEL, k))

    def check(w, sigma, tau):
        lhs = act(pres, w, sigma.concat(tau))
        rhs = act(pres, w, sigma).concat(act(pres, section(pres, w, sigma), tau))
        if lhs != rhs:
            return f"section cocycle fails for {w} at {sigma}|{tau}"
        return ""
    return _run_cases("cocycle_identity", cases, draw, check)


def _inverse_identity(pres, rng, cases):
    def draw(k):
        return zip(_random_words(rng, pres, k),
                   _random_vertices(rng, pres.degree, _VERTEX_LEVEL, k))

    def check(w, v):
        back = act(pres, w.inverse(), act(pres, w, v))
        if back != v:
            return f"{w}^-1 {w} moved {v} to {back}"
        return ""
    return _run_cases("inverse_identity", cases, draw, check)


def _label_invariance(pres, scheme, rng, cases):
    d = pres.degree
    weights = d ** np.arange(scheme.level - 1, -1, -1)  # digit place values

    def draw(k):
        words = _random_words(rng, pres, k)
        pairs = rng.integers(scheme.point_count, size=(k, 2))
        digits = (pairs[:, :, None] // weights % d + 1).tolist()
        return ((g, x, y, Vertex(tuple(dx), d), Vertex(tuple(dy), d))
                for g, (x, y), (dx, dy) in zip(words, pairs.tolist(), digits))

    def check(g, x, y, vx, vy):
        before = scheme.label(x, y)
        after = scheme.label(act(pres, g, vx).index(), act(pres, g, vy).index())
        if before != after:
            return (f"label({x}, {y}) = {before} but moving by {g} "
                    f"gives class {after}")
        return ""
    return _run_cases("label_invariance", cases, draw, check)


def _scheme_axioms(scheme, rng, cases):
    # build_scheme has already refused any axiom violation; recount p.
    def draw(k):
        pairs = rng.integers(scheme.point_count, size=(k, 2))
        classes = rng.integers(scheme.rank, size=(k, 2))
        return np.hstack([pairs, classes]).tolist()

    def check(x, y, i, j):
        row = scheme.label_row(x)
        k = int(row[y])
        count = int(np.sum((row == i) & (scheme.label_column(y) == j)))
        if count != int(scheme.p[i, j, k]):
            return (f"recount at pair ({x}, {y}) in class {k}: "
                    f"{count} != p[{i}][{j}][{k}] = {int(scheme.p[i, j, k])}")
        return ""
    return _run_cases("scheme_axioms", cases, draw, check)


def _multiplicity_seed_independence(scheme, rng, cases, seed):
    if not is_commutative(scheme.p):
        return SuiteResult("multiplicity_seed_independence", 0, 0,
                           "skipped: scheme is not commutative")
    B = intersection_matrices(scheme.p)
    case_seeds = itertools.count(seed + 1000)
    baseline = []

    def degrees(tables):
        return [tuple(sorted(m)) for m in
                multiplicities(tables, scheme.valencies, scheme.point_count)]

    def draw(k):
        # the baseline seed leads the first block's solve
        block = list(itertools.islice(case_seeds, k))
        tables = common_eigensystems(B, block if baseline else [seed, *block])
        try:
            found = degrees(tables)
        except NumericalError:  # find the failing seeds, one table at a time
            found = []
            for table in tables:
                try:
                    found += degrees(table[None])
                except NumericalError as exc:
                    found.append(exc)
        if not baseline:
            baseline.append(found.pop(0))
            if isinstance(baseline[0], NumericalError):
                raise baseline[0]
        return zip(block, found)

    def check(case_seed, other):
        if isinstance(other, NumericalError):
            return f"seed {case_seed}: {other}"
        if other != baseline[0]:
            return f"seed {case_seed} gave {other}, baseline {baseline[0]}"
        return ""
    return _run_cases("multiplicity_seed_independence", cases, draw, check)


def run_verification(pres: WreathPresentation, n: int, ray: Ray,
                     seed: int = DEFAULT_SEED, cases: int = DEFAULT_CASES,
                     cap: int = DEFAULT_LEVEL_CAP) -> list[SuiteResult]:
    """All invariant suites at one level; every suite draws its own cases."""
    rng = np.random.default_rng(seed)
    scheme = build_scheme(pres, n, ray, cap)
    return [
        _action_compatibility(pres, rng, cases),
        _cocycle_identity(pres, rng, cases),
        _inverse_identity(pres, rng, cases),
        _label_invariance(pres, scheme, rng, cases),
        _scheme_axioms(scheme, rng, cases),
        _multiplicity_seed_independence(scheme, rng, cases, seed),
    ]
