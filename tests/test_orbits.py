import random
import sys
import tracemalloc

import numpy as np
import pytest
from families import (ADDING_MACHINE, BASILICA, CONE_CASES, FINER_THAN_CONES,
                      NON_COMMUTATIVE, SHIFTED_BASE, family, in_draw)
from label_table import table_route
from scheme_routes import fold_scheme
from suborbit_reference import (blocks_by_vertex, cycle_lengths, letter_orbitals_by_sweep,
                                permutation_route, schreier_generators)

from selfsim.catalog import builtin, keys
from selfsim.errors import NotTransitiveError, SizeCapError
from selfsim.orbits import (SuborbitPartition, _canonical_partition,
                            _cross_blocks_whole, _least_in_orbit,
                            _letter_orbitals, _self_replicating,
                            bfs_group_order, cone_suborbits,
                            oracle_suborbits, orbit_transversal,
                            stabilizer_suborbits, suborbits_from_transversal)
from selfsim.scheme import build_scheme, scheme_from_partition
from selfsim.tree import DEFAULT_LEVEL_CAP, Vertex, all_d_ray, parse_ray
from selfsim.wreath import (GeneratorRule, Word, WreathPresentation, act,
                            generator_level_perms, level_permutation,
                            parse_presentation)

def _entry(key):
    e = builtin(key)
    return e.presentation, e.default_ray


def _fold(pres, n, ray):
    """The suborbit fold over the transversal table, whatever the cone route
    would do with the input."""
    return suborbits_from_transversal(pres, orbit_transversal(pres, n, ray))


def _cross_blocks(pres, base):
    return _cross_blocks_whole(pres, base, _least_in_orbit(_letter_orbitals(pres)),
                               DEFAULT_LEVEL_CAP)


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


@pytest.mark.parametrize("key", keys())
@pytest.mark.parametrize("n", [1, 2, 3])
def test_transversal_moves_base(key, n):
    pres, ray = _entry(key)
    tv = orbit_transversal(pres, n, ray)
    base = ray.prefix(n)
    for idx, word in enumerate(tv.words):
        assert act(pres, word, base).index() == idx
        assert int(tv.perms[idx][idx]) == base.index()


def test_transversal_perms_match_words():
    pres, ray = _entry("gupta-sidki")
    tv = orbit_transversal(pres, 2, ray)
    for idx in (0, 4, 8):
        assert np.array_equal(tv.perms[idx],
                              level_permutation(pres, tv.words[idx].inverse(), 2))


@pytest.mark.parametrize("key,n,dtype", [
    ("grigorchuk", 0, np.uint8),     # N = 1
    ("grigorchuk", 8, np.uint8),     # N = 256
    ("grigorchuk", 9, np.uint16),    # N = 512
    ("gupta-sidki", 5, np.uint8),    # N = 243
    ("gupta-sidki", 6, np.uint16),   # N = 729
    ("gamma", 5, np.uint8),
    ("gamma", 6, np.uint16),
])
def test_transversal_table_at_each_dtype_boundary(key, n, dtype):
    pres, ray = _entry(key)
    scheme = build_scheme(pres, n, ray)
    tv = orbit_transversal(pres, n, ray)
    size = len(tv)
    assert tv.perms.dtype == dtype
    assert tv.perms.nbytes == np.dtype(dtype).itemsize * size * size
    assert scheme.partition == permutation_route(pres, tv)
    p, pairing = table_route(scheme)
    assert np.array_equal(scheme.p, p)
    assert scheme.pairing == pairing


@pytest.mark.parametrize("key", keys())
def test_every_partition_reads_the_labels_by_their_definition(key):
    # label(x, y) is the block of u_x^-1(y) for any u_x carrying the base to
    # x, so the cone route's class table, the transversal rows of the fold
    # and of the permutation route, and the oracle's own rows give one
    # table, and the full table gives each scheme's p and pairing.
    pres, ray = _entry(key)
    for n in range(5 if pres.degree == 2 else 4):
        tv = orbit_transversal(pres, n, ray)
        kinds = {"fold": _fold(pres, n, ray), "permutation": permutation_route(pres, tv),
                 "oracle": oracle_suborbits(pres, n, ray)}
        if n > 0:
            kinds["cone"] = cone_suborbits(pres, n, ray)
        block_of = kinds["fold"].block_of
        want = np.array([block_of[level_permutation(pres, word.inverse(), n)]
                         for word in tv.words])
        for kind, parts in kinds.items():
            scheme = scheme_from_partition(parts)
            assert np.array_equal(scheme.labels, want), (kind, n)
            p, pairing = table_route(scheme)
            assert np.array_equal(scheme.p, p), (kind, n)
            assert scheme.pairing == pairing, (kind, n)


def _assert_single_labels_match_the_rows(parts, where):
    size = len(parts.block_of)
    for x in range(size):
        row = parts.label_row(x).tolist()
        assert [parts.label(x, y) for y in range(size)] == row, (where, x)


def test_a_single_label_from_the_digits_is_its_row_entry():
    # On the cone route label(x, y) reads one entry of the two tables that
    # label_row copies from; every pair must give label_row(x)[y], on the
    # catalog, the fixed cone cases and the route-certified levels of a
    # seeded family.
    for key in keys():
        pres, ray = _entry(key)
        for n in range(1, (6 if pres.degree == 2 else 4) + 1):
            parts = cone_suborbits(pres, n, ray)
            assert parts.cones is not None, (key, n)
            _assert_single_labels_match_the_rows(parts, (key, n))
    for name, (text, ray) in CONE_CASES.items():
        pres = parse_presentation(text)
        for n in range(1, 6):
            parts = cone_suborbits(pres, n, parse_ray(ray, pres.degree))
            assert parts.cones is not None, (name, n)
            _assert_single_labels_match_the_rows(parts, (name, n))
    certified = 0
    for i, (pres, ray) in enumerate(family(8, 60)):
        with in_draw(i, pres, ray):
            for n in range(1, 5):
                parts = cone_suborbits(pres, n, ray)
                if parts is not None:
                    certified += 1
                    _assert_single_labels_match_the_rows(parts, (f"draw {i}", n))
    assert certified == 46  # the route's coverage of this family shows here


def test_a_single_label_from_the_rows_is_its_row_entry():
    pres = parse_presentation(FINER_THAN_CONES)
    ray = parse_ray("3", pres.degree)
    for n in range(1, 5):
        parts = _fold(pres, n, ray)
        assert parts.rows is not None and parts.cones is None, n
        _assert_single_labels_match_the_rows(parts, ("finer-than-cones", n))
    for key in keys():
        pres, ray = _entry(key)
        for n in range(4 if pres.degree == 2 else 3):
            _assert_single_labels_match_the_rows(oracle_suborbits(pres, n, ray), (key, n))


def test_refused_level_allocates_nothing(monkeypatch):
    monkeypatch.setattr("selfsim.orbits._physical_memory", lambda: 1 << 20)
    pres, ray = _entry("grigorchuk")
    table = 2 * 4**10  # N = 2^10 uint16 entries
    # The level permutations, linear in N, are read before the table is
    # planned, so that a false involution is named first; they are built
    # here, and the trace sees what the refusal itself allocates.
    generator_level_perms(pres, 10)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=f"level 10 needs {table} bytes"):
            orbit_transversal(pres, 10, ray)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table // 64


@pytest.mark.parametrize("spare", [0, -1], ids=["half", "less-than-half"])
def test_guard_plans_the_narrow_table(monkeypatch, spare):
    # At N = 512 the uint16 table takes 2 N^2 bytes; planned as int64 (8 N^2)
    # it would be refused at every memory size tried here.
    table = 2 * 512 * 512
    monkeypatch.setattr("selfsim.orbits._physical_memory", lambda: 2 * table + spare)
    pres, ray = _entry("grigorchuk")
    if spare < 0:
        with pytest.raises(SizeCapError, match=f"more than half of the {2 * table - 1} bytes"):
            orbit_transversal(pres, 9, ray)
    else:
        assert orbit_transversal(pres, 9, ray).perms.nbytes == table


def test_schreier_level_one_grigorchuk():
    pres, ray = _entry("grigorchuk")
    assert [str(w) for w in schreier_generators(pres, 1, ray)] == ["b"]


@pytest.mark.parametrize("key", keys())
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_schreier_words_fix_base(key, n):
    pres, ray = _entry(key)
    base = ray.prefix(n)
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
    assert parts.blocks_as_vertices() == [["22"], ["21"], ["11", "12"]]


def test_suborbits_gupta_sidki_level_one():
    pres, ray = _entry("gupta-sidki")
    parts = stabilizer_suborbits(pres, 1, ray)
    assert parts.blocks_as_vertices() == [["3"], ["1"], ["2"]]


def test_suborbits_level_zero():
    pres, ray = _entry("gamma")
    parts = stabilizer_suborbits(pres, 0, ray)
    assert parts.block_of.tolist() == [0]


# An 11-adic odometer a and a root transposition b: past degree 9 a vertex's
# text joins its letters by dots, as in "10.11".
ELEVEN = WreathPresentation(11, (
    GeneratorRule("a", tuple(range(2, 12)) + (1,), (Word(),) * 10 + (Word.generator("a"),)),
    GeneratorRule("b", tuple(range(1, 10)) + (11, 10), (Word(),) * 11)), frozenset({"b"}))


def _listing_cases():
    for key in keys():
        pres, ray = _entry(key)
        for n in range(11 if pres.degree == 2 else 8):
            yield key, pres, ray, n
    for n in range(1, 7):
        yield "finer-than-cones", parse_presentation(FINER_THAN_CONES), parse_ray("3", 3), n
    for n in range(4):
        yield "degree-11", ELEVEN, all_d_ray(11), n


def test_listing_matches_the_per_vertex_reference():
    # the array passes list what one Vertex.from_index and one str per
    # vertex list, on both routes and in the dotted form
    dotted = 0
    for name, pres, ray, n in _listing_cases():
        parts = stabilizer_suborbits(pres, n, ray)
        listing = parts.blocks_as_vertices()
        assert listing == blocks_by_vertex(parts), (name, n)
        dotted += any("." in text for block in listing for text in block)
    assert dotted == 2  # degree 11, levels 2 and 3


def test_listing_past_physical_memory_is_refused_before_it_allocates(monkeypatch):
    # Level 24 of the binary tree, its block_of a broadcast view: nothing
    # N-sized is built, and the refusal states the N texts of 24 letters,
    # five 8-byte slots each.
    n, size = 24, 1 << 24
    planned = size * (sys.getsizeof("") + n + 5 * 8)
    monkeypatch.setattr("selfsim.orbits._physical_memory", lambda: 2 * planned - 1)
    parts = SuborbitPartition(Vertex((2,) * n, 2), np.broadcast_to(np.int64(0), (size,)))
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=f"^level 24 needs {planned} bytes for its "
                                               "block listing, more than half") as refused:
            parts.blocks_as_vertices()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert refused.value.size == size
    assert peak < size // 16  # the two halves' 2^12 texts each, not one per vertex


@pytest.mark.parametrize("key", keys())
def test_suborbits_match_the_permutation_route(key):
    # The cone route and the fold, each against every Schreier generator.
    pres, ray = _entry(key)
    for n in range(11 if pres.degree == 2 else 8):
        expected = permutation_route(pres, orbit_transversal(pres, n, ray))
        assert stabilizer_suborbits(pres, n, ray) == expected, n
        assert _fold(pres, n, ray) == expected, n


def test_suborbits_keep_the_pairs_of_short_cycles():
    # On level 3, b has cycles of lengths 2 and 4 and a has fixed points
    # and 2-cycles.  Only a cycle whose length is the generator's order
    # gives generators multiplying to 1; dropping a pair on a shorter cycle
    # loses a stabilizer generator and merges too little here.  The cone
    # route certifies these levels, so the fold is called directly.
    pres = parse_presentation(BASILICA)
    ray = all_d_ray(2)
    perms = generator_level_perms(pres, 3)
    assert cycle_lengths(perms["a"]) == {1, 2}
    assert cycle_lengths(perms["b"]) == {2, 4}
    assert cone_suborbits(pres, 3, ray) is not None
    parts = _fold(pres, 3, ray)
    assert parts.blocks_as_vertices() == [
        ["222"], ["221"], ["211", "212"], ["111", "112", "121", "122"]]
    for n in range(5):
        assert _fold(pres, n, ray) == oracle_suborbits(pres, n, ray)
        assert stabilizer_suborbits(pres, n, ray) == oracle_suborbits(pres, n, ray)


def test_suborbits_canonical_order():
    pres, ray = _entry("grigorchuk")
    parts = stabilizer_suborbits(pres, 4, ray)
    sizes = np.bincount(parts.block_of).tolist()
    assert sizes[0] == 1
    assert sizes[1:] == sorted(sizes[1:])


# Level 3 of the binary tree: the base 221 (index 6) is not the least member
# of its block {4, 6}; {2} and {3} tie on size, as do {0, 7} and {1, 5}, and
# each tie goes to the smaller least member.  Level 0 has one block.
FORESTS = {
    "ties": ([0, 1, 2, 3, 4, 1, 4, 0], Vertex.from_index(2, 3, 6), [3, 4, 1, 2, 0, 4, 0, 3],
             [["211", "221"], ["121"], ["122"], ["111", "222"], ["112", "212"]]),
    "level-0": ([0], Vertex.root(3), [0], [["-"]]),
}


@pytest.mark.parametrize("name", sorted(FORESTS))
def test_canonical_numbering_of_a_forest(name):
    forest, base, block_of, vertices = FORESTS[name]
    rep = np.array(forest, dtype=np.int64)
    parts = _canonical_partition(rep, base)
    assert rep.tolist() == forest
    assert parts.block_of.dtype == np.int64
    assert parts.block_of.tolist() == block_of
    assert parts.rank == len(vertices)
    assert parts.blocks_as_vertices() == vertices


def test_canonical_numbering_takes_array_passes():
    # 64 interleaved blocks on 2^18 points, the last point a block of its
    # own, so a root lies at N - 1.  The output array alone takes 8 N bytes;
    # the bound leaves room for one more N-entry array, not for a Python
    # object per vertex.
    size = 1 << 18
    labels = np.random.default_rng(3).integers(0, 63, size)
    labels[-1] = 63
    least = np.full(64, size)
    np.minimum.at(least, labels, np.arange(size))
    rep = least[labels]
    tracemalloc.start()
    try:
        parts = _canonical_partition(rep, Vertex.from_index(2, 18, 12345))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parts.rank == 64
    assert peak < 3 * 8 * size


def test_partitions_compare_bases_and_blocks():
    pres, ray = _entry("grigorchuk")
    parts = stabilizer_suborbits(pres, 3, ray)
    assert parts == oracle_suborbits(pres, 3, ray)
    assert parts == SuborbitPartition(parts.base, parts.block_of.copy())
    # Level 3 seen from 111: the same block sizes, another base.
    other = stabilizer_suborbits(pres, 3, parse_ray("1", 2))
    assert SuborbitPartition(other.base, parts.block_of) != parts
    assert SuborbitPartition(parts.base, other.block_of) != parts
    assert parts != parts.block_of.tolist()


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
    assert oracle_suborbits(pres, 1, ray).block_of.tolist() == [1, 0]
    assert oracle_suborbits(pres, 2, ray) == stabilizer_suborbits(pres, 2, ray)
    pres, ray = _entry("gamma")
    assert oracle_suborbits(pres, 1, ray).blocks_as_vertices() == [["3"], ["1"], ["2"]]


def test_schreier_vector_spells_the_words():
    pres, ray = _entry("gupta-sidki")
    tv = orbit_transversal(pres, 3, ray)
    base_idx = ray.prefix(3).index()
    assert [a.dtype for a in (tv.parent, tv.via, tv.order)] == [np.int64] * 3
    assert tv.generators == pres.generator_names
    assert tv.order[0] == base_idx
    assert (tv.parent[base_idx], tv.via[base_idx]) == (-1, -1)
    rank = np.empty(len(tv), dtype=np.int64)  # rank[x]: x's place in discovery order
    rank[tv.order] = np.arange(len(tv))
    for x in tv.order[1:].tolist():
        assert rank[tv.parent[x]] < rank[x]
        name = tv.generators[tv.via[x]]
        assert tv.words[x] == Word.generator(name) * tv.words[tv.parent[x]]
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
    # Neither the fold, called directly since the cone route certifies this
    # level, nor the route builds or reduces a word.
    pres, ray = _entry("grigorchuk")
    expected = permutation_route(pres, orbit_transversal(pres, 5, ray))

    def no_words(*_):
        raise AssertionError("the suborbit route built or reduced a word")

    monkeypatch.setattr(WreathPresentation, "reduce", no_words)
    monkeypatch.setattr(Word, "__mul__", no_words)
    monkeypatch.setattr(Word, "inverse", no_words)
    assert fold_scheme(pres, 5, ray).partition == expected
    assert build_scheme(pres, 5, ray).partition == expected


def _root_permutation_sets(count, seed):
    """Presentations of degree 2-9 with 1-3 generators, random root
    permutations and trivial sections."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(2, 9)
        lines = [f"degree: {d}"]
        for name in "abc"[:rng.randint(1, 3)]:
            letters = rng.sample(range(1, d + 1), d)  # cut into disjoint cycles
            cuts = sorted(rng.sample(range(1, d), rng.randint(0, d - 1)))
            cycles = "".join(f"({' '.join(map(str, letters[i:j]))})"
                             for i, j in zip([0] + cuts, cuts + [d]) if j - i > 1)
            lines.append(f"gen {name} = perm {cycles or '()'} | " + ", ".join(["e"] * d))
        yield parse_presentation("\n".join(lines) + "\n")


def test_letter_orbitals_match_the_sweep():
    # The pair-permutation fold against the stack sweep it replaced: the same
    # int64 table on the catalog and on random root-permutation sets.
    cases = [builtin(key).presentation for key in keys()]
    for pres in cases + list(_root_permutation_sets(300, 5)):
        got, want = _letter_orbitals(pres), letter_orbitals_by_sweep(pres)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("text,ray", [(FINER_THAN_CONES, "3"), (NON_COMMUTATIVE, "2")],
                         ids=["finer-than-cones", "non-commutative"])
def test_cone_route_declines_at_self_replication(text, ray):
    # Both fail check 2 at the ray's letter; their suborbits at levels 2-5
    # come from the fold.
    pres = parse_presentation(text)
    ray = parse_ray(ray, pres.degree)
    assert not _self_replicating(pres, ray.prefix(1).letters[0] - 1)
    for n in range(2, 6):
        assert cone_suborbits(pres, n, ray) is None, n
        assert stabilizer_suborbits(pres, n, ray) == \
            suborbits_from_transversal(pres, orbit_transversal(pres, n, ray)), n


def test_cone_route_declines_an_intransitive_root_group():
    # G_1 fixes both letters: the route declines before any level array, and
    # the fold refuses the level with the message it always gave.
    pres = parse_presentation("degree: 2\ngen a = perm () | e, e\n")
    ray = all_d_ray(2)
    for n in range(4):
        assert cone_suborbits(pres, n, ray) is None, n
    with pytest.raises(NotTransitiveError, match=r"^action on level 1 is not transitive: "
                                                 r"orbit of 2 has 1 of 2 vertices$"):
        stabilizer_suborbits(pres, 1, ray)


def test_cone_route_falls_back_after_its_budget():
    pres, ray = parse_presentation(ADDING_MACHINE), all_d_ray(2)
    assert _self_replicating(pres, 1)
    for n in (5, 6):  # more vertices than the budget of breadth-first vertices
        assert not _cross_blocks(pres, ray.prefix(n)), n
        assert cone_suborbits(pres, n, ray) is None, n
        parts = stabilizer_suborbits(pres, n, ray)
        assert parts.rank == 2**n
        assert parts == oracle_suborbits(pres, n, ray)


def test_cone_route_checks_every_shifted_base():
    pres = parse_presentation(SHIFTED_BASE)
    ray = parse_ray("13", 3)
    assert _cross_blocks(pres, ray.prefix(4))
    assert not _cross_blocks(pres, Vertex((3, 1, 3), 3))
    assert cone_suborbits(pres, 3, ray) is not None
    assert cone_suborbits(pres, 4, ray) is None
    assert stabilizer_suborbits(pres, 4, ray) == \
        permutation_route(pres, orbit_transversal(pres, 4, ray))
