import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from selfsim import verify
from selfsim.catalog import builtin
from selfsim.cli import main
from selfsim.scheme import build_scheme
from selfsim.spectral import SpectralData
from selfsim.tree import DEFAULT_LEVEL_CAP, Vertex
from selfsim.verify import _random_vertices, _random_words, run_verification
from selfsim.wreath import Word, parse_presentation

SUITES = ("action_compatibility", "cocycle_identity", "inverse_identity",
          "label_invariance", "scheme_axioms", "degree_certificate")


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


def test_degree_certificate_checks_commutation_once(monkeypatch):
    # The suite reads commutativity off p once, for its skip, and certifies
    # the pencil once; each case only asks the certificate about one wrong
    # proposal.
    e = builtin("grigorchuk")
    solves, verdicts, asked = [], [], []
    certify, commutative, accepts = verify.spectral_data, verify.is_commutative, SpectralData.accepts
    monkeypatch.setattr(verify, "spectral_data", lambda p: solves.append(p) or certify(p))
    monkeypatch.setattr(verify, "is_commutative",
                        lambda p: verdicts.append(p) or commutative(p))
    monkeypatch.setattr(SpectralData, "accepts",
                        lambda self, m: asked.append(sorted(m)) or accepts(self, m))
    results = run_verification(e.presentation, 3, e.default_ray, seed=5, cases=4)
    assert results[-1].name == "degree_certificate"
    assert results[-1].passed and results[-1].cases == 4
    assert len(solves) == len(verdicts) == 1
    # degrees 1, 1, 2, 4: one of the 1s gives a unit to the 2 or the 4, or
    # the 2 gives one to the 4
    assert len(asked) == 5  # the pencil's own proposal, then one per case
    assert asked[0] == [1, 1, 2, 4]
    assert all(m in ([0, 1, 3, 4], [0, 1, 2, 5], [1, 1, 1, 5]) for m in asked[1:]), asked


def test_degree_certificate_names_the_first_disagreeing_degree(monkeypatch):
    # Where the route certifies the level, the pencil must give the closed
    # form; a planted closed form fails every case and names the degree.
    e = builtin("grigorchuk")
    monkeypatch.setattr(verify, "closed_form_degrees", lambda *args: [1, 1, 3, 3])
    suite = run_verification(e.presentation, 3, e.default_ray, seed=5, cases=4)[-1]
    assert (suite.name, suite.cases, suite.failures) == ("degree_certificate", 4, 4)
    assert suite.detail == "pencil degree 2 is 2, closed form 3"


@pytest.mark.parametrize("fault,code", [("accepted", 3), ("refused", 2)])
def test_a_proposal_the_certificate_misjudges(capsys, monkeypatch, fault, code):
    # A certificate that accepts anything fails every case, names the wrong
    # degrees it accepted, and exits 3; one that refuses the pencil's own
    # proposal aborts the run with exit 2, as decompose would.
    verdict = fault == "accepted"
    monkeypatch.setattr(SpectralData, "accepts", lambda self, degrees: verdict)
    got = main(["verify", "--group", "grigorchuk", "--level", "3", "--seed", "5",
                "--cases", "4", "--json"])
    out = capsys.readouterr()
    assert got == code
    if code == 2:
        assert out.out == ""
        assert json.loads(out.err)["error"] == "NumericalError"
        return
    suite = json.loads(out.out)["suites"][-1]
    assert (suite["name"], suite["cases"], suite["failures"]) == ("degree_certificate", 4, 4)
    assert suite["detail"].startswith("the certificate accepted the wrong degrees [")


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
    # counts all ten, the degree certificate's wrong proposals included.
    e = builtin("grigorchuk")
    monkeypatch.setattr(verify, "_CASE_BLOCK", 4)
    draws, asked = [], []
    vertices, accepts = verify._random_vertices, SpectralData.accepts
    monkeypatch.setattr(verify, "_random_vertices",
                        lambda rng, d, top, k: draws.append(k) or vertices(rng, d, top, k))
    monkeypatch.setattr(SpectralData, "accepts",
                        lambda self, m: asked.append(m) or accepts(self, m))
    results = run_verification(e.presentation, 2, e.default_ray, seed=5, cases=10)
    assert all(r.passed and r.cases == 10 for r in results)
    # action_compatibility draws one vertex per case, cocycle_identity two
    assert draws[:3] == [4, 4, 2]
    assert len(asked) == 1 + 10


@pytest.mark.parametrize("key,n", [("grigorchuk", 8), ("grigorchuk-tilde", 8),
                                   ("gupta-sidki", 5), ("gamma", 5), ("gamma-bar", 5)])
def test_a_workload_job_certifies_its_degrees_once(monkeypatch, key, n):
    # verify's benchmark jobs: 100 cases, one certified pencil, equal to the
    # closed form and the catalog's degrees, and every wrong proposal refused.
    e = builtin(key)
    certify, solves = verify.spectral_data, []
    monkeypatch.setattr(verify, "spectral_data",
                        lambda p: solves.append(certify(p)) or solves[-1])
    results = run_verification(e.presentation, n, e.default_ray, seed=1729, cases=100)
    assert all(r.passed and r.cases == 100 for r in results)
    assert len(solves) == 1 and solves[0].degrees == e.expected_degrees(n)
    assert verify.closed_form_degrees(e.presentation, n, e.default_ray) == solves[0].degrees


def test_a_run_longer_than_one_block_checks_every_case(monkeypatch):
    # label_invariance moves the two points of each case by act, and the
    # degree certificate asks about one wrong proposal per case.
    e = builtin("grigorchuk")
    cases = verify._CASE_BLOCK + 3
    moves, asked = [], []
    act, label_suite, accepts = verify.act, verify._label_invariance, SpectralData.accepts

    def counted(*args):
        # only this suite's act calls count
        monkeypatch.setattr(verify, "act", lambda *a: moves.append(1) or act(*a))
        try:
            return label_suite(*args)
        finally:
            monkeypatch.setattr(verify, "act", act)

    monkeypatch.setattr(verify, "_label_invariance", counted)
    monkeypatch.setattr(SpectralData, "accepts",
                        lambda self, m: asked.append(m) or accepts(self, m))
    results = run_verification(e.presentation, 1, e.default_ray, cases=cases)
    assert all(r.passed and r.cases == cases for r in results)
    assert len(moves) == 2 * cases
    assert len(asked) == 1 + cases


def test_the_label_suite_builds_nothing_n_sized():
    # One int64 row of N labels is 8 N bytes; each case reads two single
    # labels instead, one table entry each.
    e = builtin("grigorchuk")
    scheme = build_scheme(e.presentation, 16, e.default_ray)
    # one case first, so that numpy's lazy imports fall outside the trace
    verify._label_invariance(e.presentation, scheme, np.random.default_rng(6), 1)
    rng = np.random.default_rng(7)
    tracemalloc.start()
    try:
        result = verify._label_invariance(e.presentation, scheme, rng, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed and result.cases == 20
    assert peak < 8 * scheme.point_count, peak


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
    if suite == "scheme_axioms":
        return verify._scheme_axioms(replace(scheme, p=scheme.p + 1), rng, 50)
    monkeypatch.setattr(SpectralData, "accepts", lambda self, degrees: True)
    return verify._degree_certificate(pres, scheme, e.default_ray, DEFAULT_LEVEL_CAP, rng, 50)


@pytest.mark.parametrize("suite,names_the_case", [
    ("action_compatibility", ("act(", " but stepwise gives ")),
    ("cocycle_identity", ("section cocycle fails for ", " at ", "|")),
    ("inverse_identity", ("^-1 ", " moved ", " to ")),
    ("label_invariance", ("label(", " but moving by ", " gives class ")),
    ("scheme_axioms", ("recount at pair (", " in class ", " != p[")),
    ("degree_certificate", ("the certificate accepted the wrong degrees [",)),
])
def test_each_suite_catches_a_planted_fault(monkeypatch, suite, names_the_case):
    result = _faulty_suite(monkeypatch, suite)
    assert result.name == suite
    assert result.cases == 50 and result.failures > 0
    assert all(part in result.detail for part in names_the_case), result.detail
