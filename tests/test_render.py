from selfsim.catalog import builtin
from selfsim.render import orbital_graph_dot, portrait_dot
from selfsim.scheme import build_scheme
from selfsim.wreath import Word, portrait


def test_portrait_dot_elides_trivial_subtrees():
    g = builtin("grigorchuk").presentation
    dot = portrait_dot(portrait(g, Word.parse("d"), 1))
    node_lines = [ln for ln in dot.splitlines() if "[label=" in ln and "->" not in ln]
    assert len(node_lines) == 2
    assert 'vroot [label="()"]' in dot
    assert "b" in dot
    assert dot.startswith("digraph")


def test_portrait_dot_empty_word():
    g = builtin("grigorchuk").presentation
    dot = portrait_dot(portrait(g, Word.parse("e"), 2))
    node_lines = [ln for ln in dot.splitlines() if "[label=" in ln and "->" not in ln]
    assert len(node_lines) == 1  # everything below the root is trivial


def test_orbital_dot_level_one():
    e = builtin("grigorchuk")
    dot = orbital_graph_dot(build_scheme(e.presentation, 1, e.default_ray))
    assert dot.count("->") == 1
    assert "// class 1" in dot
    assert 'label="1"' in dot and 'label="2"' in dot


def test_orbital_dot_directed_pairs():
    e = builtin("gamma")
    dot = orbital_graph_dot(build_scheme(e.presentation, 1, e.default_ray))
    assert "dir=none" not in dot  # the two classes are swapped by pairing
