import tracemalloc

import pytest

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


def _orbital_dot(key, n):
    e = builtin(key)
    return "".join(orbital_graph_dot(build_scheme(e.presentation, n, e.default_ray)))


def test_orbital_dot_level_one():
    dot = _orbital_dot("grigorchuk", 1)
    assert dot.count("->") == 1
    assert "// class 1" in dot
    assert 'label="1"' in dot and 'label="2"' in dot


def test_orbital_dot_directed_pairs():
    dot = _orbital_dot("gamma", 1)
    assert "dir=none" not in dot  # the two classes are swapped by pairing


GRIGORCHUK_2 = """digraph orbital {
  node [shape=circle];
  // class 1: color=red, valency=1, pair=1
  // class 2: color=blue, valency=2, pair=2
  x0 [label="11"];
  x1 [label="12"];
  x2 [label="21"];
  x3 [label="22"];
  x0 -> x1 [color=red, dir=none];
  x0 -> x2 [color=blue, dir=none];
  x0 -> x3 [color=blue, dir=none];
  x1 -> x2 [color=blue, dir=none];
  x1 -> x3 [color=blue, dir=none];
  x2 -> x3 [color=red, dir=none];
}
"""

GUPTA_SIDKI_1 = """digraph orbital {
  node [shape=circle];
  // class 1: color=red, valency=1, pair=2
  // class 2: color=blue, valency=1, pair=1
  x0 [label="1"];
  x1 [label="2"];
  x2 [label="3"];
  x0 -> x1 [color=red];
  x0 -> x2 [color=blue];
  x1 -> x2 [color=red];
}
"""


@pytest.mark.parametrize("key,n,want", [("grigorchuk", 2, GRIGORCHUK_2),
                                        ("gupta-sidki", 1, GUPTA_SIDKI_1)])
def test_orbital_dot_text(key, n, want):
    assert _orbital_dot(key, n) == want


def test_orbital_dot_holds_one_row_at_a_time():
    # At N = 512 the text is 130 816 edge lines, about 6 MB as one string and
    # more as a list of lines; written a row at a time it peaks near 0.15 MB
    # and builds no N x N label table.
    e = builtin("grigorchuk")
    size = 2**9
    scheme = build_scheme(e.presentation, 9, e.default_ray)
    edges = 0
    tracemalloc.start()
    try:
        for chunk in orbital_graph_dot(scheme):
            edges += chunk.count("->")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert edges == size * (size - 1) // 2
    assert "labels" not in vars(scheme)
