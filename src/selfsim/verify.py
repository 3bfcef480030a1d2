"""Randomized invariant suites tying the algebra back to the tree action.

Each suite draws its cases as arrays, _CASE_BLOCK at a time (word lengths,
generator picks and sign bits; vertex levels and digits; point and class
pairs; the degree certificate's pairs of degrees), and checks them one by
one.  The label suite moves a case's two points by ``act`` and reads each
label alone (``scheme.label``, one entry on the cone route), so it builds
nothing N-sized per case.  The degree certificate suite certifies the
level's degrees once, by ``spectral_data``'s integer pencil, and holds them
equal to the closed form wherever the cone route certifies the level; each
of its cases moves one unit of multiplicity between two degrees, and the
certificate must refuse the result, most often on its constant term alone.
The seed fixes every suite's cases, block by block: one generator serves
the suites in their fixed order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .orbits import cone_certificate
from .scheme import build_scheme, is_commutative
from .spectral import DEFAULT_SEED, spectral_data, wreath_power_degrees
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
        count = int(np.count_nonzero((row == i) & (scheme.label_column(y) == j)))
        if count != int(scheme.p[i, j, k]):
            return (f"recount at pair ({x}, {y}) in class {k}: "
                    f"{count} != p[{i}][{j}][{k}] = {int(scheme.p[i, j, k])}")
        return ""
    return _run_cases("scheme_axioms", cases, draw, check)


def closed_form_degrees(pres: WreathPresentation, n: int, ray: Ray,
                        cap: int = DEFAULT_LEVEL_CAP) -> list[int] | None:
    """The exact degrees of level n where the cone certificate passes and
    G_1's orbital scheme is commutative; else None."""
    orbital = cone_certificate(pres, n, ray, cap)
    return None if orbital is None else wreath_power_degrees(orbital, n)


def _unit_moves(degrees: list[int]) -> np.ndarray:
    """The (a, b) pairs of the certificate suite's cases: a unit moves from
    degree a to degree b, from the smaller of two distinct degrees to the
    larger, so the multiset always changes; with one value, between equal
    ones."""
    m = np.asarray(degrees)
    pairs = np.argwhere(m[:, None] < m[None, :])
    return pairs if len(pairs) else np.argwhere(~np.eye(len(m), dtype=bool))


def _degree_certificate(pres, scheme, ray, cap, rng, cases):
    name = "degree_certificate"
    if not is_commutative(scheme.p):
        return SuiteResult(name, 0, 0, "skipped: scheme is not commutative")
    data = spectral_data(scheme.p)
    degrees = data.degrees
    closed = closed_form_degrees(pres, scheme.level, ray, cap)
    disagreement = ""
    if closed is not None and closed != degrees:
        j, (ours, theirs) = next((j, pair) for j, pair in
                                 enumerate(itertools.zip_longest(degrees, closed))
                                 if pair[0] != pair[1])
        disagreement = f"pencil degree {j} is {ours}, closed form {theirs}"
    pairs = _unit_moves(degrees)
    if not len(pairs):
        return SuiteResult(name, 0, 0, "skipped: rank 1 has no other proposal")

    def draw(k):
        return pairs[rng.integers(len(pairs), size=k)].tolist()

    def check(a, b):
        if disagreement:
            return disagreement
        wrong = list(degrees)
        wrong[a] -= 1
        wrong[b] += 1
        if data.accepts(wrong):
            return f"the certificate accepted the wrong degrees {sorted(wrong)}"
        return ""
    return _run_cases(name, cases, draw, check)


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
        _degree_certificate(pres, scheme, ray, cap, rng, cases),
    ]
