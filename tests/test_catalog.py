import numpy as np
import pytest

from selfsim.catalog import builtin, keys, source_text
from selfsim.errors import UnknownGroupError
from selfsim.wreath import Word, level_permutation, parse_presentation

ALL_KEYS = ("grigorchuk", "grigorchuk-tilde", "gamma", "gamma-bar", "gupta-sidki")


def test_keys():
    assert set(keys()) == set(ALL_KEYS)


def test_unknown_key():
    with pytest.raises(UnknownGroupError):
        builtin("nope")


@pytest.mark.parametrize("key", ALL_KEYS)
def test_source_round_trip(key):
    entry = builtin(key)
    assert parse_presentation(source_text(key)) == entry.presentation


@pytest.mark.parametrize("key,degree,gens", [
    ("grigorchuk", 2, ("a", "b", "c", "d")),
    ("grigorchuk-tilde", 2, ("a", "b", "c", "d")),
    ("gamma", 3, ("a", "r")),
    ("gamma-bar", 3, ("a", "s")),
    ("gupta-sidki", 3, ("a", "t")),
])
def test_entries(key, degree, gens):
    entry = builtin(key)
    assert entry.degree == degree
    assert entry.presentation.generator_names == gens


@pytest.mark.parametrize("key", ALL_KEYS)
def test_involution_declarations(key):
    entry = builtin(key)
    if entry.degree == 2:
        assert entry.presentation.involutions == frozenset("abcd")
    else:
        assert entry.presentation.involutions == frozenset()


@pytest.mark.parametrize("key", ALL_KEYS)
def test_default_ray_is_all_d(key):
    entry = builtin(key)
    d = entry.degree
    assert str(entry.default_ray.prefix(3)) == str(d) * 3


@pytest.mark.parametrize("key", ALL_KEYS)
@pytest.mark.parametrize("n", range(1, 5))
def test_expected_degrees_consistent(key, n):
    entry = builtin(key)
    degs = entry.expected_degrees(n)
    assert len(degs) == entry.expected_rank(n)
    assert sum(degs) == entry.degree**n


def test_expected_degrees_examples():
    assert builtin("grigorchuk").expected_degrees(1) == [1, 1]
    assert builtin("gamma").expected_degrees(2) == [1, 1, 1, 3, 3]
    assert builtin("gupta-sidki").expected_degrees(0) == [1]
    assert builtin("grigorchuk").expected_rank(0) == 1


def test_tilde_group_contains_the_plain_one():
    # the words a, d b, b c, c d in the tilde presentation act exactly like
    # a, b, c, d in the plain one (the unique pairing consistent with the
    # recursions), checked on every level <= 5
    g = builtin("grigorchuk").presentation
    gt = builtin("grigorchuk-tilde").presentation
    mapping = {"a": "a", "b": "d b", "c": "b c", "d": "c d"}
    for n in range(6):
        for gen, image in mapping.items():
            pg = level_permutation(g, Word.parse(gen), n)
            pt = level_permutation(gt, Word.parse(image), n)
            assert np.array_equal(pg, pt), (gen, n)
