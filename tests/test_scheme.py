import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from label_table import table_route

from selfsim.catalog import builtin
from selfsim.scheme import (axiom_violations, build_scheme, hecke_dimension,
                            is_commutative, scheme_json_doc,
                            verify_scheme_axioms)
from selfsim.spectral import degree_multiset_from_scheme, dense_commutant_oracle
from selfsim.wreath import level_permutation

ALL_KEYS = ("grigorchuk", "grigorchuk-tilde", "gamma", "gamma-bar", "gupta-sidki")


def _scheme(key, n, **kw):
    e = builtin(key)
    return build_scheme(e.presentation, n, e.default_ray, **kw)


def test_grigorchuk_level_one():
    s = _scheme("grigorchuk", 1)
    assert s.rank == 2
    assert list(s.valencies) == [1, 1]
    assert s.p[1][1][0] == 1
    assert s.p[1][1][1] == 0


def test_grigorchuk_level_two():
    s = _scheme("grigorchuk", 2)
    assert s.rank == 3
    assert list(s.valencies) == [1, 1, 2]


def test_gupta_sidki_level_one_pairing():
    s = _scheme("gupta-sidki", 1)
    assert s.rank == 3
    assert list(s.valencies) == [1, 1, 1]
    assert s.pairing == (0, 2, 1)


def test_hecke_dimension():
    assert hecke_dimension(_scheme("grigorchuk", 4)) == 5
    assert hecke_dimension(_scheme("gamma-bar", 3)) == 7
    assert hecke_dimension(_scheme("gamma", 0)) == 1


def test_commutativity_examples():
    assert is_commutative(_scheme("grigorchuk", 2))
    assert is_commutative(_scheme("gupta-sidki", 1))
    assert is_commutative(_scheme("grigorchuk", 0))


def test_axioms_clean():
    assert verify_scheme_axioms(_scheme("grigorchuk", 3)) == []


def test_axioms_catch_perturbation():
    s = _scheme("grigorchuk", 3)
    bad = s.p.copy()
    bad[1][2][1] += 1
    report = axiom_violations(s.valencies, bad, s.pairing, s.point_count)
    assert report
    assert any("sum_j" in line for line in report)


def test_violation_report_capped():
    s = _scheme("gamma", 2)
    bad = np.zeros_like(s.p)
    report = axiom_violations(s.valencies, bad, s.pairing, s.point_count)
    assert len(report) <= 10


@pytest.mark.parametrize("key", ["grigorchuk", "grigorchuk-tilde"])
def test_pairing_identity_for_binary_groups(key):
    for n in range(6):
        s = _scheme(key, n)
        assert s.pairing == tuple(range(s.rank)), (key, n)


@pytest.mark.parametrize("key", ["gamma", "gamma-bar", "gupta-sidki"])
def test_pairing_swaps_sibling_classes(key):
    # classes come in sibling pairs (same block size, prefixes ...1 vs ...2)
    # exchanged by the transpose, regression-locked through level 4
    for n in range(1, 5):
        s = _scheme(key, n)
        want = (0,) + tuple(x for i in range(1, s.rank, 2) for x in (i + 1, i))
        assert s.pairing == want, (key, n)


def test_label_invariance_spot():
    e = builtin("gamma")
    s = build_scheme(e.presentation, 2, e.default_ray)
    rng = np.random.default_rng(5)
    names = e.presentation.generator_names
    for _ in range(50):
        word_letters = tuple((names[rng.integers(2)], int(rng.choice((-1, 1))))
                             for _ in range(rng.integers(0, 6)))
        from selfsim.wreath import Word
        perm = level_permutation(e.presentation, Word(word_letters), 2)
        x, y = int(rng.integers(9)), int(rng.integers(9))
        assert s.label(x, y) == s.label(int(perm[x]), int(perm[y]))


def test_representative_independence():
    s = _scheme("grigorchuk", 3)
    for k, block in enumerate(s.partition.blocks):
        if len(block) < 2:
            continue
        other = block[1]
        col = s.label_column(other)
        counts = np.zeros((s.rank, s.rank), dtype=np.int64)
        for z in range(s.point_count):
            counts[int(s.block_of[z]), int(col[z])] += 1
        assert np.array_equal(counts, s.p[:, :, k])


def test_on_demand_labels_match_materialized():
    s = _scheme("gamma", 2)
    assert "labels" not in vars(s)  # the table is built only when read
    on_demand = [(s.label_row(x), s.label_column(x)) for x in range(9)]
    p, pairing = table_route(s)
    assert np.array_equal(s.p, p)
    assert s.pairing == pairing
    for x, (row, column) in enumerate(on_demand):
        assert np.array_equal(row, s.labels[x])
        assert np.array_equal(column, s.labels[:, x])
        for y in range(9):
            assert s.label(x, y) == int(s.labels[x, y])


@pytest.mark.parametrize("key", ALL_KEYS)
def test_row_route_matches_the_label_table(key):
    top = 6 if builtin(key).degree == 2 else 4
    for n in range(top + 1):
        s = _scheme(key, n)
        p, pairing = table_route(s)
        assert np.array_equal(s.p, p), (key, n)
        assert s.pairing == pairing, (key, n)
        assert dense_commutant_oracle(s) == degree_multiset_from_scheme(s), (key, n)


def test_axioms_catch_a_broken_transversal():
    s = _scheme("grigorchuk", 3)
    perms = s.transversal.perms.copy()
    x = (s.base_index + 1) % s.point_count
    perms[[s.base_index, x]] = perms[[x, s.base_index]]  # u_base and u_x swapped
    broken = replace(s, transversal=replace(s.transversal, perms=perms))
    report = verify_scheme_axioms(broken)
    assert any("label row" in line for line in report)
    assert any("diagonal" in line for line in report)


def test_build_scheme_holds_one_transversal_table():
    # The N x N transversal table is the only quadratic allocation: nothing
    # on the scheme path builds its inverse or a second table beside it.
    e = builtin("grigorchuk")
    size = 2**9
    tracemalloc.start()
    try:
        build_scheme(e.presentation, 9, e.default_ray)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * size * size


def test_json_doc_shape():
    doc = scheme_json_doc(_scheme("grigorchuk", 2))
    assert set(doc) == {"rank", "valencies", "pairing", "commutative", "p"}
    assert doc["rank"] == 3
    assert doc["valencies"] == [1, 1, 2]
    assert doc["commutative"] is True
    p = np.asarray(doc["p"])
    assert p.shape == (3, 3, 3)
    assert p.dtype.kind == "i"
