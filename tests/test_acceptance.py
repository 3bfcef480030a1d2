"""End-to-end acceptance checks.

One test per headline property of the built-in groups: suborbit block
structure on both tree degrees, commutativity of every orbital scheme,
component degrees and their tower nesting, Hecke dimensions, agreement
with the brute-force oracles, and the randomized invariant suites.
Each test prints a single PASS line when it succeeds (visible with -s).
"""

import time
from itertools import product

import pytest

from selfsim import (bfs_group_order, build_scheme, builtin,
                     dense_commutant_oracle, is_commutative, oracle_suborbits,
                     run_verification, spectral_data, stabilizer_suborbits)
from selfsim.spectral import degrees_embed

BINARY = ("grigorchuk", "grigorchuk-tilde")
TERNARY = ("gamma", "gamma-bar", "gupta-sidki")
BINARY_MAX = 8
TERNARY_MAX = 6
DEGREE_LEVELS = {2: 8, 3: 5}


def expected_binary_blocks(n):
    """Base vertex, then one block per depth of first disagreement with
    the ray, smallest first."""
    blocks = [frozenset({"2" * n})]
    for i in range(n - 1, -1, -1):
        blocks.append(frozenset(
            "2" * i + "1" + "".join(tail)
            for tail in product("12", repeat=n - 1 - i)))
    return blocks


def expected_ternary_blocks(n):
    """Same as the binary shape but the two off-ray letters stay apart."""
    blocks = [frozenset({"3" * n})]
    for i in range(n - 1, -1, -1):
        for c in "12":
            blocks.append(frozenset(
                "3" * i + c + "".join(tail)
                for tail in product("123", repeat=n - 1 - i)))
    return blocks


def expected_degrees(degree, n):
    if degree == 2:
        return sorted([1, 1] + [2 ** i for i in range(1, n)])
    return sorted([1, 1, 1] + [3 ** i for i in range(1, n) for _ in range(2)])


@pytest.fixture(scope="module")
def schemes():
    built = {}
    for key in BINARY:
        entry = builtin(key)
        for n in range(1, BINARY_MAX + 1):
            built[key, n] = build_scheme(entry.presentation, n, entry.default_ray)
    for key in TERNARY:
        entry = builtin(key)
        for n in range(1, TERNARY_MAX + 1):
            built[key, n] = build_scheme(entry.presentation, n, entry.default_ray)
    return built


def test_binary_suborbit_structure():
    start = time.perf_counter()
    for key in BINARY:
        entry = builtin(key)
        for n in range(1, BINARY_MAX + 1):
            parts = stabilizer_suborbits(entry.presentation, n, entry.default_ray)
            got = [frozenset(b) for b in parts.blocks_as_vertices()]
            assert len(got) == n + 1, (key, n)
            assert got == expected_binary_blocks(n), (key, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS binary suborbit structure: {len(BINARY)} groups, "
          f"levels 1..{BINARY_MAX}, exact blocks, {elapsed:.2f}s")


def test_ternary_suborbit_structure():
    worst = 0.0
    for key in TERNARY:
        start = time.perf_counter()
        entry = builtin(key)
        for n in range(1, TERNARY_MAX + 1):
            parts = stabilizer_suborbits(entry.presentation, n, entry.default_ray)
            got = [frozenset(b) for b in parts.blocks_as_vertices()]
            assert len(got) == 2 * n + 1, (key, n)
            assert got == expected_ternary_blocks(n), (key, n)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, key
        worst = max(worst, elapsed)
    print(f"PASS ternary suborbit structure: {len(TERNARY)} groups, "
          f"levels 1..{TERNARY_MAX}, exact blocks, worst group {worst:.2f}s")


def test_gelfand_property(schemes):
    for (key, n), scheme in schemes.items():
        assert is_commutative(scheme.p), (key, n)
    print(f"PASS gelfand property: all {len(schemes)} schemes commutative")


def test_component_degrees(schemes):
    checked = 0
    for key in BINARY + TERNARY:
        degree = builtin(key).degree
        for n in range(1, DEGREE_LEVELS[degree] + 1):
            got = spectral_data(schemes[key, n].p).degrees
            assert got == expected_degrees(degree, n), (key, n)
            assert sum(got) == degree ** n, (key, n)
            checked += 1
    print(f"PASS component degrees: {checked} levels match the "
          f"1,1(,1) + powers pattern, sums exact")


def test_hecke_dimensions(schemes):
    for key in BINARY:
        for n in range(1, BINARY_MAX + 1):
            assert schemes[key, n].rank == n + 1, (key, n)
    for key in TERNARY:
        for n in range(1, TERNARY_MAX + 1):
            assert schemes[key, n].rank == 2 * n + 1, (key, n)
    print("PASS hecke dimensions: n+1 on the binary tree, 2n+1 on the ternary")


def test_tower_nesting():
    checked = 0
    for key in BINARY + TERNARY:
        entry = builtin(key)
        top = BINARY_MAX if entry.degree == 2 else TERNARY_MAX
        degrees = [spectral_data(build_scheme(entry.presentation, n,
                                              entry.default_ray).p).degrees
                   for n in range(top + 1)]
        for n in range(top):
            assert degrees_embed(degrees[n], degrees[n + 1]), (key, n)
            checked += 1
    print(f"PASS tower nesting: {checked} consecutive-level embeddings hold")


def test_independent_oracles():
    start = time.perf_counter()
    for key in BINARY:
        entry = builtin(key)
        for n in range(1, 4):
            parts = stabilizer_suborbits(entry.presentation, n, entry.default_ray)
            assert oracle_suborbits(entry.presentation, n, entry.default_ray) == parts
            scheme = build_scheme(entry.presentation, n, entry.default_ray)
            assert (dense_commutant_oracle(scheme)
                    == spectral_data(scheme.p).degrees)
    for key in TERNARY:
        entry = builtin(key)
        # full-group enumeration is only feasible through level 2 here
        for n in range(1, 3):
            parts = stabilizer_suborbits(entry.presentation, n, entry.default_ray)
            assert oracle_suborbits(entry.presentation, n, entry.default_ray) == parts
        for n in range(1, 6):
            scheme = build_scheme(entry.presentation, n, entry.default_ray)
            assert (dense_commutant_oracle(scheme)
                    == spectral_data(scheme.p).degrees)
    grig = builtin("grigorchuk").presentation
    assert [bfs_group_order(grig, n) for n in (1, 2, 3)] == [2, 8, 128]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS independent oracles: enumeration and dense-spectrum checks "
          f"agree, {elapsed:.2f}s")


def test_randomized_invariant_suites():
    levels = {2: 5, 3: 3}
    for key in BINARY + TERNARY:
        entry = builtin(key)
        results = run_verification(entry.presentation, levels[entry.degree],
                                   entry.default_ray, cases=200)
        assert len(results) == 6, key
        for r in results:
            assert r.cases >= 200, (key, r.name)
            assert r.failures == 0, (key, r.name, r.detail)
    print("PASS randomized invariant suites: 6 suites x 5 groups, "
          "200+ cases each, zero failures")
