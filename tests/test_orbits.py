import numpy as np
import pytest
from suborbit_reference import permutation_route

from selfsim.catalog import builtin
from selfsim.errors import NotTransitiveError, SizeCapError
from selfsim.orbits import (bfs_group_order, oracle_suborbits,
                            orbit_transversal, schreier_generators,
                            stabilizer_suborbits)
from selfsim.scheme import build_scheme
from selfsim.tree import all_d_ray, ray_prefix
from selfsim.wreath import (Word, WreathPresentation, act,
                            generator_level_perms, level_permutation,
                            parse_presentation)

ALL_KEYS = ("grigorchuk", "grigorchuk-tilde", "gamma", "gamma-bar", "gupta-sidki")


def _entry(key):
    e = builtin(key)
    return e.presentation, e.default_ray


def test_transversal_grigorchuk_level_one():
    pres, ray = _entry("grigorchuk")
    tv = orbit_transversal(pres, 1, ray)
    assert str(tv.base) == "2"
    assert [str(w) for w in tv.words] == ["a", "e"]


def test_transversal_level_zero():
    pres, ray = _entry("grigorchuk")
    tv = orbit_transversal(pres, 0, ray)
    assert [str(w) for w in tv.words] == ["e"]


def test_transversal_gamma_level_one():
    pres, ray = _entry("gamma")
    tv = orbit_transversal(pres, 1, ray)
    assert str(tv.base) == "3"
    assert [str(w) for w in tv.words] == ["a", "a a", "e"]


@pytest.mark.parametrize("key", ALL_KEYS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_transversal_moves_base(key, n):
    pres, ray = _entry(key)
    tv = orbit_transversal(pres, n, ray)
    base = ray_prefix(ray, n)
    for idx, word in enumerate(tv.words):
        assert act(pres, word, base).index() == idx
        assert int(tv.perms[idx][idx]) == base.index()


def test_transversal_perms_match_words():
    pres, ray = _entry("gupta-sidki")
    tv = orbit_transversal(pres, 2, ray)
    for idx in (0, 4, 8):
        assert np.array_equal(tv.perms[idx],
                              level_permutation(pres, tv.words[idx].inverse(), 2))


def test_schreier_level_one_grigorchuk():
    pres, ray = _entry("grigorchuk")
    assert [str(w) for w in schreier_generators(pres, 1, ray)] == ["b"]


@pytest.mark.parametrize("key", ALL_KEYS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_schreier_words_fix_base(key, n):
    pres, ray = _entry(key)
    base = ray_prefix(ray, n)
    words = schreier_generators(pres, n, ray)
    assert words, "stabilizer generators expected at positive levels"
    for w in words:
        assert act(pres, w, base) == base
        assert len(w) > 0


def test_schreier_distinct_permutations():
    pres, ray = _entry("gamma")
    words = schreier_generators(pres, 3, ray)
    perms = {level_permutation(pres, w, 3).tobytes() for w in words}
    assert len(perms) == len(words)


def test_suborbits_grigorchuk_level_two():
    pres, ray = _entry("grigorchuk")
    parts = stabilizer_suborbits(pres, 2, ray)
    assert parts.blocks_as_vertices(2) == [["22"], ["21"], ["11", "12"]]


def test_suborbits_gupta_sidki_level_one():
    pres, ray = _entry("gupta-sidki")
    parts = stabilizer_suborbits(pres, 1, ray)
    assert parts.blocks_as_vertices(3) == [["3"], ["1"], ["2"]]


def test_suborbits_level_zero():
    pres, ray = _entry("gamma")
    parts = stabilizer_suborbits(pres, 0, ray)
    assert parts.blocks == ((0,),)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_suborbits_match_the_permutation_route(key):
    pres, ray = _entry(key)
    for n in range(11 if pres.degree == 2 else 8):
        assert stabilizer_suborbits(pres, n, ray) == \
            permutation_route(pres, orbit_transversal(pres, n, ray)), n


BASILICA = "degree: 2\ngen a = perm () | e, b\ngen b = perm (1 2) | e, a\n"


def _cycle_lengths(perm):
    lengths, seen = set(), set()
    for start in range(len(perm)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x, length = int(perm[x]), length + 1
        if length:
            lengths.add(length)
    return lengths


def test_suborbits_keep_the_pairs_of_short_cycles():
    # On level 3, b has cycles of lengths 2 and 4 and a has fixed points
    # and 2-cycles.  Only a cycle whose length is the generator's order
    # gives generators multiplying to 1; dropping a pair on a shorter cycle
    # loses a stabilizer generator and merges too little here.
    pres = parse_presentation(BASILICA)
    ray = all_d_ray(2)
    perms = generator_level_perms(pres, 3)
    assert _cycle_lengths(perms["a"]) == {1, 2}
    assert _cycle_lengths(perms["b"]) == {2, 4}
    parts = stabilizer_suborbits(pres, 3, ray)
    assert parts.blocks_as_vertices(2) == [
        ["222"], ["221"], ["211", "212"], ["111", "112", "121", "122"]]
    for n in range(5):
        assert stabilizer_suborbits(pres, n, ray) == oracle_suborbits(pres, n, ray)


def test_suborbits_canonical_order():
    pres, ray = _entry("grigorchuk")
    parts = stabilizer_suborbits(pres, 4, ray)
    sizes = parts.block_sizes()
    assert sizes[0] == 1
    assert list(sizes[1:]) == sorted(sizes[1:])


def test_not_transitive():
    pres = parse_presentation("degree: 2\ngen a = perm () | e, e\n")
    with pytest.raises(NotTransitiveError) as exc:
        orbit_transversal(pres, 1, all_d_ray(2))
    assert exc.value.orbit_size == 1


def test_ray_degree_mismatch():
    pres, _ = _entry("grigorchuk")
    with pytest.raises(ValueError):
        orbit_transversal(pres, 1, all_d_ray(3))


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 8), (3, 128)])
def test_bfs_group_order_grigorchuk(n, expected):
    pres, _ = _entry("grigorchuk")
    assert bfs_group_order(pres, n) == expected


def test_bfs_group_order_gamma_level_one():
    pres, _ = _entry("gamma")
    assert bfs_group_order(pres, 1) == 3


def test_bfs_group_order_cap():
    pres, _ = _entry("grigorchuk")
    with pytest.raises(SizeCapError) as exc:
        bfs_group_order(pres, 3, cap=50)
    assert exc.value.size == 50
    assert "50" in str(exc.value)


def test_oracle_suborbits_examples():
    pres, ray = _entry("grigorchuk")
    assert oracle_suborbits(pres, 1, ray).blocks == (((1,), (0,)))
    assert oracle_suborbits(pres, 2, ray) == stabilizer_suborbits(pres, 2, ray)
    pres, ray = _entry("gamma")
    assert oracle_suborbits(pres, 1, ray).blocks_as_vertices(3) == [["3"], ["1"], ["2"]]


def test_schreier_vector_spells_the_words():
    pres, ray = _entry("gupta-sidki")
    tv = orbit_transversal(pres, 3, ray)
    base_idx = ray_prefix(ray, 3).index()
    assert tv.order[0] == base_idx
    assert (tv.parent[base_idx], tv.via[base_idx]) == (-1, None)
    for x in tv.order[1:]:
        assert tv.order.index(tv.parent[x]) < tv.order.index(x)
        assert tv.words[x] == Word.generator(tv.via[x]) * tv.words[tv.parent[x]]
        assert np.array_equal(tv.perms[x],
                              level_permutation(pres, tv.words[x].inverse(), 3))


# The exact word lists are output: their order and the rule that drops empty
# words, then keeps the first word per permutation, are pinned here.
GOLDEN_SCHREIER = {
    ("grigorchuk", 4): [
        "b", "c", "a b c a", "a b a c a b a", "a b a b a b c a b a b a",
        "a b a b a b a c a b c a c a b a b a b a",
        "a b a b a b a c a b a b a b c a b a b a c a b a b a b a", "d",
    ],
    ("gupta-sidki", 3): [
        "a a a", "a^-1 a^-1 t^-1 a t t a", "a^-1 t^-1 t^-1 a a t a a",
        "a^-1 a^-1 t^-1 a^-1 t^-1 a^-1 a^-1 t^-1 a a t t a a t a",
        "a^-1 t^-1 a^-1 a^-1 t^-1 t^-1 a t a a t a t a a",
        "a^-1 t^-1 a^-1 a^-1 t^-1 a^-1 a^-1 t^-1 a t a t t a t a a",
        "a^-1 a^-1 t^-1 a^-1 t^-1 t^-1 a^-1 t^-1 a a t a a t a a t a",
        "t", "a^-1 t^-1 a^-1 t t a a", "a^-1 a^-1 t a t a",
        "a^-1 a^-1 t^-1 a^-1 t^-1 t^-1 a^-1 t a t a a t a",
        "a^-1 t^-1 a^-1 a^-1 t^-1 t^-1 a^-1 t t a t a t a a",
        "a^-1 a^-1 t^-1 a^-1 t^-1 a^-1 t a t t a a t a",
        "a^-1 a^-1 t^-1 a^-1 t^-1 a^-1 t^-1 a^-1 t t a a t a t a a",
        "a^-1 a^-1 t^-1 a^-1 t^-1 a^-1 a^-1 t a t a t a t a a",
        "a^-1 t^-1 a^-1 a^-1 t^-1 a^-1 a^-1 t a a t t a t a a",
        "a^-1 t^-1 a^-1 a^-1 t^-1 a^-1 t t a t t a t a a",
        "a^-1 a^-1 t^-1 a^-1 t^-1 t^-1 a^-1 a^-1 t t a a t a a t a",
        "a^-1 a^-1 t^-1 a^-1 t^-1 a^-1 t^-1 a^-1 a^-1 t a a t a t a t a a",
    ],
}


@pytest.mark.parametrize("key,n", sorted(GOLDEN_SCHREIER))
def test_schreier_generators_golden(key, n):
    pres, ray = _entry(key)
    assert [str(w) for w in schreier_generators(pres, n, ray)] == GOLDEN_SCHREIER[key, n]


def test_suborbits_build_no_words(monkeypatch):
    pres, ray = _entry("grigorchuk")
    expected = stabilizer_suborbits(pres, 5, ray)

    def no_words(*_):
        raise AssertionError("the suborbit route built or reduced a word")

    monkeypatch.setattr(WreathPresentation, "reduce", no_words)
    monkeypatch.setattr(Word, "__mul__", no_words)
    monkeypatch.setattr(Word, "inverse", no_words)
    scheme = build_scheme(pres, 5, ray)
    assert scheme.partition == expected
    assert "words" not in vars(scheme.transversal)
