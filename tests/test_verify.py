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
    e = builtin("grigorchuk")
    seeds = []
    checked = verify.common_eigensystem
    monkeypatch.setattr(verify, "common_eigensystem",
                        lambda B, seed: seeds.append(seed) or checked(B, seed))
    results = run_verification(e.presentation, 3, e.default_ray, seed=5, cases=4)
    assert results[-1].name == "multiplicity_seed_independence"
    assert results[-1].passed and results[-1].cases == 4
    assert seeds == [5]
