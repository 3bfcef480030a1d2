import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from families import ADDING_MACHINE, BASILICA

import selfsim
from selfsim.catalog import builtin, source_text
from selfsim.errors import PresentationError, SizeCapError
from selfsim.tree import Vertex
from selfsim.wreath import (GeneratorRule, Word, WreathPresentation, act,
                            cycle_notation, free_reduce, generator_level_perms,
                            level_permutation, order_at_level,
                            parse_presentation, portrait, section)

import section_reference as ref

G = builtin("grigorchuk").presentation
GAMMA = builtin("gamma").presentation
GAMMA_BAR = builtin("gamma-bar").presentation
GUPTA_SIDKI = builtin("gupta-sidki").presentation


def v2(text):
    return Vertex.parse(text, 2)


def v3(text):
    return Vertex.parse(text, 3)


# ---------------------------------------------------------------------------
# parsing


def test_parse_builtin_file():
    pres = parse_presentation(source_text("grigorchuk"))
    assert pres.degree == 2
    assert pres.generator_names == ("a", "b", "c", "d")
    assert pres.involutions == frozenset("abcd")


def test_parse_minimal():
    pres = parse_presentation("degree: 2\ngen a = perm (1 2) | e, e\n")
    assert pres.generator_names == ("a",)
    assert pres.rules[0].root_perm == (2, 1)


def test_parse_comments_and_blanks():
    text = "# top comment\ndegree: 2\n\ngen a = perm (1 2) | e, e  # swap\n"
    assert parse_presentation(text).degree == 2


def test_undeclared_section_generator():
    with pytest.raises(PresentationError) as exc:
        parse_presentation("degree: 2\ngen x = perm () | y, y\n")
    assert "y" in str(exc.value)
    assert exc.value.line == 2


@pytest.mark.parametrize("text,needle", [
    ("degree: 1\ngen a = perm () | e\n", "degree"),
    ("degree: 10\ngen a = perm () | e, e\n", "degree"),
    ("gen a = perm () | e, e\n", "degree"),
    ("degree: 2\n", "no generator"),
    ("degree: 2\ngen a = perm (1 2) | e, e\ngen a = perm () | e, e\n", "already declared"),
    ("degree: 2\ngen a = perm (1 2) | e\n", "section words"),
    ("degree: 2\ngen a = perm (3) | e, e\n", "at least two"),
    ("degree: 2\ngen a = perm (1 3) | e, e\n", "outside"),
    ("degree: 2\ngen a = perm (1 2)(2 1) | e, e\n", "two cycles"),
    ("degree: 2\ngen a = perm (1 2) | e, e\ninvolutions: a\n", "before"),
    ("degree: 2\ninvolutions: z\ngen a = perm (1 2) | e, e\n", "undeclared"),
    ("degree: 2\ngen e = perm (1 2) | e, e\n", "reserved"),
    ("degree: 2\ngen a = perm (1 2) | e, a e\n", "stand alone"),
    ("degree: 3\ninvolutions: a\ngen a = perm (1 2 3) | e, e, e\n", "order greater than 2"),
])
def test_parse_errors(text, needle):
    with pytest.raises(PresentationError) as exc:
        parse_presentation(text)
    assert needle in str(exc.value)


def test_parse_error_location():
    with pytest.raises(PresentationError) as exc:
        parse_presentation("degree: 2\ngen a = perm (1 7) | e, e\n")
    assert exc.value.line == 2
    assert exc.value.column is not None


def test_presentation_rejects_a_false_involution():
    three_cycle = GeneratorRule("a", (2, 3, 1), (Word(),) * 3)
    with pytest.raises(ValueError, match="order greater than 2"):
        WreathPresentation(3, (three_cycle,), frozenset("a"))


def _rule(name, root_perm, *sections):
    return GeneratorRule(name, root_perm, tuple(map(Word.parse, sections)))


SWAP = _rule("a", (2, 1), "e", "e")


@pytest.mark.parametrize("refuse,needle", [
    (lambda: WreathPresentation(1, (SWAP,)), "degree must be >= 2"),
    (lambda: WreathPresentation(2, ()), "at least one generator"),
    (lambda: WreathPresentation(2, (SWAP, SWAP)), "duplicate generator names"),
    (lambda: WreathPresentation(2, (_rule("a", (1, 1), "e", "e"),)), "not a bijection"),
    (lambda: WreathPresentation(2, (_rule("a", (2, 1), "e"),)), "exactly 2 section words"),
    (lambda: WreathPresentation(2, (_rule("a", (2, 1), "e", "b"),)),
     "section of 'a' uses undeclared generator 'b'"),
    (lambda: WreathPresentation(2, (SWAP,), frozenset("z")),
     "involutions list names undeclared generator 'z'"),
    (lambda: G.parse_word("a y z"), "undeclared generator 'y' in word"),
    (lambda: act(G, Word.parse("a y z"), v2("1")), "undeclared generator 'y' in word"),
    (lambda: section(G, Word.parse("a y z"), v2("1")), "undeclared generator 'y' in word"),
    (lambda: level_permutation(G, Word.parse("a y z"), 2), "undeclared generator 'y' in word"),
    (lambda: section(G, Word.parse("a"), v3("1")), "vertex degree does not match"),
], ids=["degree", "no-rules", "duplicate", "root-perm", "section-count", "section-name",
        "involution-name", "parse-word", "act", "section", "level-permutation",
        "section-degree"])
def test_refusals(refuse, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        refuse()


# Two presentations the constructor refuses for more than one generator:
# three undeclared involutions, and two declared involutions of order 3.
HASH_SEED_PROBE = """
from selfsim.wreath import GeneratorRule, Word, WreathPresentation
e = (Word(),) * 3
for rules, involutions in [((GeneratorRule("s", (1, 2, 3), e),), "pqr"),
                           ((GeneratorRule("a", (2, 3, 1), e),
                             GeneratorRule("b", (3, 1, 2), e)), "ab")]:
    try:
        WreathPresentation(3, rules, frozenset(involutions))
    except ValueError as exc:
        print(exc)
"""


def test_refusals_do_not_depend_on_the_hash_seed():
    src = Path(selfsim.__file__).resolve().parents[1]
    outputs = [subprocess.run([sys.executable, "-c", HASH_SEED_PROBE], capture_output=True,
                              text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
                              ).stdout for seed in ("1", "2")]
    assert outputs == 2 * ["involutions list names undeclared generator 'p'\n"
                           "declared involution 'a' has a root permutation of order "
                           "greater than 2\n"]


def test_declared_involution_sections_are_checked():
    # a = (1 2)(b, e, e) squares to (b, b, e), which b of order 3 moves on level 2
    pres = parse_presentation("degree: 3\ninvolutions: a\n"
                              "gen a = perm (1 2) | b, e, e\n"
                              "gen b = perm (1 2 3) | e, e, e\n")
    assert order_at_level(pres, Word.parse("a"), 1) == 2
    with pytest.raises(PresentationError, match="level 2"):
        generator_level_perms(pres, 2)
    with pytest.raises(PresentationError):  # the bad level is not cached
        order_at_level(pres, Word.parse("a"), 3)


def test_a_false_involution_names_its_lowest_level_on_a_deep_first_call():
    pres = parse_presentation("degree: 3\ninvolutions: a\n"
                              "gen a = perm (1 2) | b, e, e\n"
                              "gen b = perm (1 2 3) | e, e, e\n")
    with pytest.raises(PresentationError, match="'a' does not square to the identity on level 2$"):
        generator_level_perms(pres, 5)
    assert sorted(pres._level_cache) == [0, 1]
    with pytest.raises(PresentationError, match="on level 2$"):
        generator_level_perms(pres, 3)
    assert sorted(pres._level_cache) == [0, 1]


@pytest.mark.parametrize("text, named", [
    # c^2 = (a a, a a, e) first moves a vertex on level 3, a^2 = (b, b, e) on level 2
    ("degree: 3\ninvolutions: c, a\n"
     "gen c = perm (1 2) | a, a, e\n"
     "gen a = perm (1 2) | b, e, e\n"
     "gen b = perm (1 2 3) | e, e, e\n", "'a' does not square to the identity on level 2"),
    # both first fail on level 2: the earlier in generator order is named
    ("degree: 3\ninvolutions: a, z\n"
     "gen z = perm (1 2) | b, e, e\n"
     "gen a = perm (1 2) | e, b, e\n"
     "gen b = perm (1 2 3) | e, e, e\n", "'z' does not square to the identity on level 2"),
], ids=["lowest-level-first", "generator-order-within-a-level"])
def test_two_false_involutions_name_the_lowest_level_then_generator_order(text, named):
    pres = parse_presentation(text)
    with pytest.raises(PresentationError, match=re.escape(named) + "$"):
        generator_level_perms(pres, 4)
    assert sorted(pres._level_cache) == [0, 1]


def test_level_permutation_hands_out_no_cached_array():
    pres = parse_presentation(source_text("grigorchuk"))
    for text in ("a", "b", "a b"):
        perm = level_permutation(pres, Word.parse(text), 3)
        cached = {name: p.copy() for name, p in generator_level_perms(pres, 3).items()}
        perm[:] = 0
        for name, p in generator_level_perms(pres, 3).items():
            assert np.array_equal(p, cached[name]), (text, name)


def test_canonical_round_trip():
    pres = parse_presentation(source_text("gupta-sidki"))
    again = parse_presentation(pres.to_text())
    assert again == pres
    assert again.fingerprint() == pres.fingerprint()


def test_word_parse_and_render():
    w = Word.parse("a b^-1 c")
    assert str(w) == "a b^-1 c"
    assert str(Word.parse("e")) == "e"
    assert str(w.inverse()) == "c^-1 b a^-1"
    with pytest.raises(ValueError):
        Word.parse("a e")
    with pytest.raises(ValueError):
        Word.parse("")
    with pytest.raises(ValueError):
        Word.parse("9bad")


def test_free_reduce():
    w = Word.parse("a b b^-1 a c")
    assert str(free_reduce(w)) == "a a c"
    assert str(free_reduce(w, frozenset("a"))) == "c"
    assert str(free_reduce(Word.parse("a^-1 a"))) == "e"


# ---------------------------------------------------------------------------
# action and sections


@pytest.mark.parametrize("word,vertex,image", [
    ("a", "12", "22"),
    ("b", "12", "11"),
    ("e", "2121", "2121"),
    ("a", "111", "211"),
    ("b", "211", "212"),
    ("d", "2121", "2111"),
])
def test_act_examples(word, vertex, image):
    assert str(act(G, Word.parse(word), v2(vertex))) == image


def test_act_validates():
    with pytest.raises(ValueError):
        act(G, Word.parse("z"), v2("1"))
    with pytest.raises(ValueError):
        act(G, Word.parse("a"), v3("1"))


@pytest.mark.parametrize("pres,word,vertex,expected", [
    (G, "b", "2", "c"),
    (G, "b", "22", "d"),
    (G, "b", "1", "a"),
    (GUPTA_SIDKI, "t", "2", "a^-1"),
    (GUPTA_SIDKI, "t", "3", "t"),
    (GAMMA, "r", "1", "a"),
])
def test_section_examples(pres, word, vertex, expected):
    d = pres.degree
    assert str(section(pres, Word.parse(word), Vertex.parse(vertex, d))) == expected


def test_section_at_root_reduces():
    w = Word.parse("a a b")
    assert str(section(G, w, v2("-"))) == "b"


def test_level_permutations():
    assert list(level_permutation(G, Word.parse("a"), 1)) == [1, 0]
    assert list(level_permutation(G, Word.parse("d"), 1)) == [0, 1]
    assert list(level_permutation(GAMMA, Word.parse("a"), 1)) == [1, 2, 0]


def test_level_permutation_homomorphism():
    rng = np.random.default_rng(7)
    names = G.generator_names
    for _ in range(25):
        u = Word(tuple((names[rng.integers(4)], 1) for _ in range(rng.integers(0, 6))))
        v = Word(tuple((names[rng.integers(4)], 1) for _ in range(rng.integers(0, 6))))
        pu = level_permutation(G, u, 4)
        pv = level_permutation(G, v, 4)
        puv = level_permutation(G, u * v, 4)
        assert np.array_equal(puv, pu[pv])


@pytest.mark.parametrize("text", [ADDING_MACHINE, BASILICA],
                         ids=["adding-machine", "basilica"])
def test_inverse_word_inverts_the_level_permutation(text):
    # Every catalog generator has order 2 or 3 on each level, where p^-1 is
    # p or p^2.  Here the last generator has order 2^n (adding machine) or
    # 2^ceil(n/2) (Basilica) on level n, so a wrong inverse shows.
    pres = parse_presentation(text)
    names = pres.generator_names
    assert order_at_level(pres, Word.generator(names[-1]), 5) > 3
    rng = np.random.default_rng(5)
    for n in range(6):
        identity = np.arange(2**n)
        for _ in range(20):
            w = Word(tuple((names[rng.integers(len(names))], int(rng.choice((-1, 1))))
                           for _ in range(rng.integers(1, 6))))
            p = level_permutation(pres, w, n)
            q = level_permutation(pres, w.inverse(), n)
            assert np.array_equal(p[q], identity) and np.array_equal(q[p], identity), (w, n)


def test_level_permutation_block_consistency():
    rng = np.random.default_rng(11)
    names = GAMMA.generator_names
    n = 3
    m = 3 ** (n - 1)
    for _ in range(20):
        w = Word(tuple((names[rng.integers(2)], int(rng.choice((-1, 1))))
                       for _ in range(rng.integers(0, 6))))
        p1 = level_permutation(GAMMA, w, 1)
        pn = level_permutation(GAMMA, w, n)
        assert np.array_equal(pn // m, p1[np.arange(3**n) // m])


def test_reduction_preserves_action():
    rng = np.random.default_rng(13)
    names = G.generator_names
    for _ in range(25):
        w = Word(tuple((names[rng.integers(4)], 1) for _ in range(rng.integers(0, 8))))
        r = G.reduce(w)
        x = v2("".join(str(rng.integers(1, 3)) for _ in range(5)))
        assert act(G, w, x) == act(G, r, x)


@pytest.mark.parametrize("pres", [G, GUPTA_SIDKI, GAMMA],
                         ids=["grigorchuk", "gupta-sidki", "gamma"])
def test_walk_matches_the_letter_recursion(pres):
    # Vertices up to 20 letters, which the reference takes in one call of
    # its memoized letter recursion.
    rng = np.random.default_rng(17)
    names, d = pres.generator_names, pres.degree
    for _ in range(30):
        w = Word(tuple((names[rng.integers(len(names))], int(rng.choice((-1, 1))))
                       for _ in range(rng.integers(0, 6))))
        x = Vertex(tuple(int(i) for i in rng.integers(1, d + 1, rng.integers(0, 21))), d)
        assert act(pres, w, x) == ref.act(pres, w, x)
        assert section(pres, w, x) == ref.section(pres, w, x)


@pytest.mark.parametrize("pres", [G, GUPTA_SIDKI, GAMMA])
@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_chunked_walk_matches_the_recursion(pres, chunk):
    # A vertex walked a chunk at a time, carrying the section below each
    # chunk into the next, lands where the one-call recursion does.
    rng = np.random.default_rng(17)
    names, d = pres.generator_names, pres.degree
    for _ in range(30):
        w = Word(tuple((names[rng.integers(len(names))], int(rng.choice((-1, 1))))
                       for _ in range(rng.integers(0, 6))))
        x = Vertex(tuple(int(i) for i in rng.integers(1, d + 1, rng.integers(0, 21))), d)
        image, sec = (), w
        for i in range(0, x.level, chunk):
            piece = Vertex(x.letters[i:i + chunk], d)
            image += act(pres, sec, piece).letters
            sec = section(pres, sec, piece)
        assert Vertex(image, d) == ref.act(pres, w, x)
        assert sec == ref.section(pres, w, x)


@pytest.mark.parametrize("word,n,expected", [
    ("d d", 5, True),
    ("d", 1, True),
    ("d", 2, True),   # frozen oracle value; d first moves a vertex at level 3
    ("d", 3, False),
    ("a", 1, False),
])
def test_is_trivial_at_level(word, n, expected):
    assert (order_at_level(G, Word.parse(word), n) == 1) is expected


def _order_by_iteration(pres, word, n):
    p = level_permutation(pres, word, n)
    q = p.copy()
    k = 1
    identity = np.arange(len(p))
    while not np.array_equal(q, identity):
        q = p[q]
        k += 1
    return k


@pytest.mark.parametrize("word,n,expected", [
    ("a", 3, 2),
    ("e", 4, 1),
    ("a b", 4, 8),    # frozen oracle value; order 16 first appears at level 5
    ("a b", 5, 16),
])
def test_order_at_level(word, n, expected):
    w = Word.parse(word)
    assert order_at_level(G, w, n) == expected
    assert _order_by_iteration(G, w, n) == expected


@pytest.mark.parametrize("key", ["grigorchuk", "gamma", "gupta-sidki"])
def test_order_at_level_matches_iterated_powers(key):
    # The cycle count against composing the permutation until the identity,
    # on random words with inverse letters.
    pres = builtin(key).presentation
    names = pres.generator_names
    rng = np.random.default_rng(29)
    for n in range(1, 6):
        for _ in range(8):
            w = Word(tuple((names[rng.integers(len(names))], int(rng.choice((-1, 1))))
                           for _ in range(rng.integers(0, 7))))
            assert order_at_level(pres, w, n) == _order_by_iteration(pres, w, n), (w, n)


def test_order_at_level_cap():
    with pytest.raises(SizeCapError):
        order_at_level(G, Word.parse("a b"), 25)


# ---------------------------------------------------------------------------
# portraits


def test_portrait_d_depth_one():
    node = portrait(G, Word.parse("d"), 1)
    assert node.root_perm == (1, 2)
    assert [str(c.word) for c in node.children] == ["e", "b"]
    assert node.children[0].is_trivial()
    assert not node.children[1].is_trivial()


def test_portrait_a_depth_one():
    node = portrait(G, Word.parse("a"), 1)
    assert node.root_perm == (2, 1)
    assert all(str(c.word) == "e" for c in node.children)


def test_portrait_s_depth_one():
    node = portrait(GAMMA_BAR, Word.parse("s"), 1)
    assert node.root_perm == (1, 2, 3)
    assert [str(c.word) for c in node.children] == ["a", "a", "s"]


def test_portrait_depth_zero():
    node = portrait(G, Word.parse("b b c"), 0)
    assert node.children == ()
    assert str(node.word) == "c"


def test_cycle_notation():
    assert cycle_notation((2, 1)) == "(1 2)"
    assert cycle_notation((1, 2, 3)) == "()"
    assert cycle_notation((2, 3, 1)) == "(1 2 3)"
    assert cycle_notation((2, 1, 4, 3)) == "(1 2)(3 4)"
