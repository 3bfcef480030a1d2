"""Randomized invariant suites tying the algebra back to the tree action."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scheme import build_scheme, is_commutative
from .spectral import (DEFAULT_SEED, _eigensystem, common_eigensystem,
                       intersection_matrices, multiplicities)
from .tree import DEFAULT_LEVEL_CAP, Ray, Vertex
from .wreath import Word, WreathPresentation, act, level_permutation, section

DEFAULT_CASES = 200
_WORD_LEN = 10
_VERTEX_LEVEL = 6
_SECTION_LEVEL = 3


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _random_word(rng: np.random.Generator, pres: WreathPresentation) -> Word:
    names = pres.generator_names
    letters = []
    for _ in range(int(rng.integers(0, _WORD_LEN + 1))):
        name = names[int(rng.integers(len(names)))]
        sign = 1 if name in pres.involutions or int(rng.integers(2)) == 0 else -1
        letters.append((name, sign))
    return Word(tuple(letters))


def _random_vertex(rng: np.random.Generator, degree: int, max_level: int) -> Vertex:
    lvl = int(rng.integers(0, max_level + 1))
    return Vertex(tuple(int(rng.integers(1, degree + 1)) for _ in range(lvl)), degree)


def _run_cases(name: str, cases: int, one_case) -> SuiteResult:
    failures = 0
    detail = ""
    for i in range(cases):
        problem = one_case(i)
        if problem:
            failures += 1
            if not detail:
                detail = problem
    return SuiteResult(name, cases, failures, detail)


def _action_compatibility(pres, rng, cases):
    def case(_):
        u = _random_word(rng, pres)
        v = _random_word(rng, pres)
        x = _random_vertex(rng, pres.degree, _VERTEX_LEVEL)
        lhs = act(pres, u * v, x)
        rhs = act(pres, u, act(pres, v, x))
        if lhs != rhs:
            return f"act({u} * {v}, {x}) = {lhs} but stepwise gives {rhs}"
        return ""
    return _run_cases("action_compatibility", cases, case)


def _cocycle_identity(pres, rng, cases):
    def case(_):
        w = _random_word(rng, pres)
        sigma = _random_vertex(rng, pres.degree, _SECTION_LEVEL)
        tau = _random_vertex(rng, pres.degree, _SECTION_LEVEL)
        lhs = act(pres, w, sigma.concat(tau))
        rhs = act(pres, w, sigma).concat(act(pres, section(pres, w, sigma), tau))
        if lhs != rhs:
            return f"section cocycle fails for {w} at {sigma}|{tau}"
        return ""
    return _run_cases("cocycle_identity", cases, case)


def _inverse_identity(pres, rng, cases):
    def case(_):
        w = _random_word(rng, pres)
        v = _random_vertex(rng, pres.degree, _VERTEX_LEVEL)
        back = act(pres, w.inverse(), act(pres, w, v))
        if back != v:
            return f"{w}^-1 {w} moved {v} to {back}"
        return ""
    return _run_cases("inverse_identity", cases, case)


def _label_invariance(pres, scheme, rng, cases):
    size = scheme.point_count
    def case(_):
        g = _random_word(rng, pres)
        perm = level_permutation(pres, g, scheme.level)
        x = int(rng.integers(size))
        y = int(rng.integers(size))
        before = scheme.label(x, y)
        after = scheme.label(int(perm[x]), int(perm[y]))
        if before != after:
            return (f"label({x}, {y}) = {before} but moving by {g} "
                    f"gives class {after}")
        return ""
    return _run_cases("label_invariance", cases, case)


def _scheme_axioms(scheme, rng, cases):
    # build_scheme has already refused any axiom violation; recount p.
    size = scheme.point_count
    r = scheme.rank
    def case(_):
        x = int(rng.integers(size))
        y = int(rng.integers(size))
        i = int(rng.integers(r))
        j = int(rng.integers(r))
        k = scheme.label(x, y)
        count = int(np.sum((scheme.label_row(x) == i) &
                           (scheme.label_column(y) == j)))
        if count != int(scheme.p[i, j, k]):
            return (f"recount at pair ({x}, {y}) in class {k}: "
                    f"{count} != p[{i}][{j}][{k}] = {int(scheme.p[i, j, k])}")
        return ""
    return _run_cases("scheme_axioms", cases, case)


def _multiplicity_seed_independence(scheme, rng, cases, seed):
    if not is_commutative(scheme):
        return SuiteResult("multiplicity_seed_independence", 0, 0,
                           "skipped: scheme is not commutative")
    B = intersection_matrices(scheme)
    def degrees(P):
        return tuple(sorted(multiplicities(P, scheme.valencies, scheme.point_count)))
    baseline = degrees(common_eigensystem(B, seed))  # checks commutation once
    def case(i):
        other = degrees(_eigensystem(B, seed + 1000 + i))
        if other != baseline:
            return f"seed {seed + 1000 + i} gave {other}, baseline {baseline}"
        return ""
    return _run_cases("multiplicity_seed_independence", cases, case)


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
