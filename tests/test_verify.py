import json
from dataclasses import replace

import numpy as np
import pytest

from selfsim import verify
from selfsim.catalog import builtin
from selfsim.cli import main
from selfsim.scheme import build_scheme
from selfsim.tree import Vertex
from selfsim.verify import _random_vertices, _random_words, run_verification
from selfsim.wreath import Word, parse_presentation

SUITES = ("action_compatibility", "cocycle_identity", "inverse_identity",
          "label_invariance", "scheme_axioms", "multiplicity_seed_independence")


@pytest.mark.parametrize("key,n", [("grigorchuk", 2), ("gamma", 1)])
def test_suites_pass(key, n):
    e = builtin(key)
    results = run_verification(e.presentation, n, e.default_ray, cases=30)
    assert [r.name for r in results] == list(SUITES)
    for r in results:
        assert r.failures == 0, (r.name, r.detail)
        assert r.cases == 30


def test_case_count_respected():
    e = builtin("grigorchuk")
    results = run_verification(e.presentation, 1, e.default_ray, cases=12)
    assert all(r.cases == 12 for r in results)


def test_seed_independence_checks_commutation_once(monkeypatch):
    # Commutativity is read off p once; every solve, the baseline's and each
    # case's, goes through one common_eigensystems batch per block of cases,
    # and four cases fit in one block.
    e = builtin("grigorchuk")
    batches, verdicts = [], []
    solve, commutative = verify.common_eigensystems, verify.is_commutative
    monkeypatch.setattr(verify, "common_eigensystems",
                        lambda B, seeds: batches.append(list(seeds)) or solve(B, seeds))
    monkeypatch.setattr(verify, "is_commutative",
                        lambda p: verdicts.append(p) or commutative(p))
    results = run_verification(e.presentation, 3, e.default_ray, seed=5, cases=4)
    assert results[-1].name == "multiplicity_seed_independence"
    assert results[-1].passed and results[-1].cases == 4
    assert batches == [[5, 1005, 1006, 1007, 1008]]
    assert len(verdicts) == 1


def test_seed_independence_names_the_seed_that_disagrees(monkeypatch):
    # The block's tables go through one stacked multiplicities call, baseline
    # first; the third case's row reads as other degrees, and the suite counts
    # exactly that case and names its seed.
    e = builtin("grigorchuk")
    degrees, stacks = verify.multiplicities, []

    def planted(P, *args):
        stacks.append(len(P))
        found = degrees(P, *args)
        found[3] = [1, 3, 3, 1]
        return found

    monkeypatch.setattr(verify, "multiplicities", planted)
    results = run_verification(e.presentation, 3, e.default_ray, seed=5, cases=4)
    suite = results[-1]
    assert stacks == [5]
    assert suite.name == "multiplicity_seed_independence"
    assert (suite.cases, suite.failures) == (4, 1)
    assert suite.detail == "seed 1007 gave (1, 1, 3, 3), baseline (1, 1, 2, 4)"


@pytest.mark.parametrize("bad_seed,code", [(1007, 3), (5, 2)])
def test_a_seed_whose_multiplicities_miss_an_integer(capsys, monkeypatch, bad_seed, code):
    # One seed's table is scaled off its unit rows, so its multiplicities
    # miss every integer.  A case seed fails its case, named in the detail,
    # and the other cases still pass; the baseline seed 5 still aborts the run.
    solve = verify.common_eigensystems

    def planted(B, seeds):
        tables = solve(B, seeds)
        for t, s in enumerate(seeds):
            if s == bad_seed:
                tables[t] *= 1.01
        return tables

    monkeypatch.setattr(verify, "common_eigensystems", planted)
    got = main(["verify", "--group", "grigorchuk", "--level", "3", "--seed", "5",
                "--cases", "4", "--json"])
    out = capsys.readouterr()
    assert got == code
    if code == 2:
        assert json.loads(out.err)["error"] == "NumericalError"
        return
    suite = json.loads(out.out)["suites"][-1]
    assert (suite["name"], suite["cases"], suite["failures"]) == (
        "multiplicity_seed_independence", 4, 1)
    assert suite["detail"].startswith("seed 1007: multiplicity ")
    assert "not within 1e-06 of a positive integer" in suite["detail"]


# a is a declared involution, b is not declared one
MIXED = "degree: 2\ninvolutions: a\ngen a = perm (1 2) | e, e\ngen b = perm () | a, b\n"


def test_random_words_keep_lengths_names_and_involution_signs():
    pres = parse_presentation(MIXED)
    words = _random_words(np.random.default_rng(0), pres, 2000)
    assert len(words) == 2000
    assert {len(w) for w in words} == set(range(verify._WORD_LEN + 1))
    letters = {letter for w in words for letter in w.letters}
    assert letters == {("a", 1), ("b", 1), ("b", -1)}


def test_random_vertices_keep_levels_and_digits():
    vertices = _random_vertices(np.random.default_rng(0), 3, 4, 2000)
    assert len(vertices) == 2000
    assert {v.level for v in vertices} == set(range(5))
    assert {c for v in vertices for c in v.letters} == {1, 2, 3}
    assert all(v.degree == 3 for v in vertices)


def test_draws_of_nothing_and_of_one_generator(monkeypatch):
    rng = np.random.default_rng(0)
    pres = parse_presentation("degree: 2\ngen a = perm (1 2) | e, e\n")
    assert _random_words(rng, pres, 0) == []
    assert _random_vertices(rng, 2, 3, 0) == []
    letters = {letter for w in _random_words(rng, pres, 200) for letter in w.letters}
    assert letters == {("a", 1), ("a", -1)}
    assert [v.letters for v in _random_vertices(rng, 3, 0, 5)] == [()] * 5
    monkeypatch.setattr(verify, "_WORD_LEN", 0)
    assert _random_words(rng, pres, 5) == [Word()] * 5


def test_same_seed_same_results():
    e = builtin("gupta-sidki")
    runs = [run_verification(e.presentation, 2, e.default_ray, seed=11, cases=40)
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_cases_are_drawn_block_by_block(monkeypatch):
    # Ten cases in blocks of four: each suite draws 4, 4 and 2 cases and
    # counts all ten, the seed suite's seeds included; the baseline seed
    # leads the first block's solve.
    e = builtin("grigorchuk")
    monkeypatch.setattr(verify, "_CASE_BLOCK", 4)
    draws, batches = [], []
    vertices, solve = verify._random_vertices, verify.common_eigensystems
    monkeypatch.setattr(verify, "_random_vertices",
                        lambda rng, d, top, k: draws.append(k) or vertices(rng, d, top, k))
    monkeypatch.setattr(verify, "common_eigensystems",
                        lambda B, seeds: batches.append(list(seeds)) or solve(B, seeds))
    results = run_verification(e.presentation, 2, e.default_ray, seed=5, cases=10)
    assert all(r.passed and r.cases == 10 for r in results)
    # action_compatibility draws one vertex per case, cocycle_identity two
    assert draws[:3] == [4, 4, 2]
    assert batches == [[5, 1005, 1006, 1007, 1008], [1009, 1010, 1011, 1012], [1013, 1014]]


@pytest.mark.parametrize("key,n,stacks", [
    ("grigorchuk", 8, 3), ("grigorchuk-tilde", 8, 3),
    ("gupta-sidki", 5, 4), ("gamma", 5, 4), ("gamma-bar", 5, 4)])
def test_a_workload_job_solves_its_seeds_in_few_stacks(monkeypatch, key, n, stacks):
    # 100 cases are one block: the baseline and 100 case seeds go to one
    # common_eigensystems call, which stacks 50 seeds per eig at rank 9
    # and 33 at rank 11.
    e = builtin(key)
    eig, calls = np.linalg.eig, []
    monkeypatch.setattr(np.linalg, "eig", lambda M: calls.append(len(M)) or eig(M))
    results = run_verification(e.presentation, n, e.default_ray, seed=1729, cases=100)
    assert all(r.passed for r in results)
    assert len(calls) == stacks and sum(calls) == 101


def test_a_run_longer_than_one_block_checks_every_case(monkeypatch):
    # label_invariance moves the two points of each case by act, and the
    # seed suite solves the baseline and one seed per case, a block of
    # seeds per solve.
    e = builtin("grigorchuk")
    cases = verify._CASE_BLOCK + 3
    moves, batches = [], []
    act, label_suite, solve = verify.act, verify._label_invariance, verify.common_eigensystems

    def counted(*args):
        # only this suite's act calls count
        monkeypatch.setattr(verify, "act", lambda *a: moves.append(1) or act(*a))
        try:
            return label_suite(*args)
        finally:
            monkeypatch.setattr(verify, "act", act)

    monkeypatch.setattr(verify, "_label_invariance", counted)
    monkeypatch.setattr(verify, "common_eigensystems",
                        lambda B, block: batches.append(list(block)) or solve(B, block))
    results = run_verification(e.presentation, 1, e.default_ray, cases=cases)
    assert all(r.passed and r.cases == cases for r in results)
    assert len(moves) == 2 * cases
    assert [len(b) for b in batches] == [verify._CASE_BLOCK + 1, 3]
    assert sum(batches, []) == [1729, *range(2729, 2729 + cases)]


def _faulty_suite(monkeypatch, suite):
    """Run one suite with a planted fault; the suite's name picks the fault."""
    key = "gupta-sidki" if suite == "inverse_identity" else "grigorchuk"
    e = builtin(key)
    pres = e.presentation
    scheme = build_scheme(pres, 3, e.default_ray)
    rng = np.random.default_rng(1)
    if suite == "action_compatibility":
        act = verify.act
        monkeypatch.setattr(verify, "act",
                            lambda pres, w, x: act(pres, Word(w.letters[:-1]), x))
        return verify._action_compatibility(pres, rng, 50)
    if suite == "cocycle_identity":
        monkeypatch.setattr(verify, "section", lambda pres, w, v: Word())
        return verify._cocycle_identity(pres, rng, 50)
    if suite == "inverse_identity":
        # reverses the letters but keeps their signs; t is no involution
        monkeypatch.setattr(Word, "inverse", lambda w: Word(w.letters[::-1]))
        return verify._inverse_identity(pres, rng, 50)
    if suite == "label_invariance":
        # every image one index further on
        act, size = verify.act, scheme.point_count
        monkeypatch.setattr(verify, "act", lambda pres, w, v: Vertex.from_index(
            v.degree, v.level, (act(pres, w, v).index() + 1) % size))
        return verify._label_invariance(pres, scheme, rng, 50)
    return verify._scheme_axioms(replace(scheme, p=scheme.p + 1), rng, 50)


@pytest.mark.parametrize("suite,names_the_case", [
    ("action_compatibility", ("act(", " but stepwise gives ")),
    ("cocycle_identity", ("section cocycle fails for ", " at ", "|")),
    ("inverse_identity", ("^-1 ", " moved ", " to ")),
    ("label_invariance", ("label(", " but moving by ", " gives class ")),
    ("scheme_axioms", ("recount at pair (", " in class ", " != p[")),
])
def test_each_suite_catches_a_planted_fault(monkeypatch, suite, names_the_case):
    result = _faulty_suite(monkeypatch, suite)
    assert result.name == suite
    assert result.cases == 50 and result.failures > 0
    assert all(part in result.detail for part in names_the_case), result.detail
