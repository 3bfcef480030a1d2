import pytest

from selfsim import verify
from selfsim.catalog import builtin
from selfsim.verify import run_verification

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
    # case's, goes through one common_eigensystems batch.
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
    # The third case's table reads as other degrees: the suite counts exactly
    # that case and names its seed.
    e = builtin("grigorchuk")
    solve, degrees = verify.common_eigensystems, verify.multiplicities
    tables = []
    monkeypatch.setattr(verify, "common_eigensystems",
                        lambda B, seeds: tables.extend(solve(B, seeds)) or tables)
    monkeypatch.setattr(verify, "multiplicities",
                        lambda P, *args: [1, 3, 3, 1] if P is tables[3] else degrees(P, *args))
    results = run_verification(e.presentation, 3, e.default_ray, seed=5, cases=4)
    suite = results[-1]
    assert suite.name == "multiplicity_seed_independence"
    assert (suite.cases, suite.failures) == (4, 1)
    assert suite.detail == "seed 1007 gave (1, 1, 3, 3), baseline (1, 1, 2, 4)"
