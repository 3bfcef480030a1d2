"""Graphviz DOT export for portraits and orbital graphs."""

from __future__ import annotations

from collections.abc import Iterator

from .errors import SizeCapError
from .scheme import OrbitalScheme
from .tree import Vertex
from .wreath import PortraitNode, cycle_notation

_PALETTE = (
    "red", "blue", "forestgreen", "orange", "purple", "brown",
    "cadetblue", "magenta", "darkgoldenrod", "navy", "turquoise", "gray40",
)
ORBITAL_GRAPH_CAP = 4096  # the export writes N (N - 1) / 2 edge lines


def portrait_dot(root: PortraitNode) -> str:
    """The recursion tree with entirely trivial subtrees omitted."""
    lines = [
        "digraph portrait {",
        '  node [shape=box, fontname="monospace"];',
    ]
    _portrait_walk(root, (), lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_id(path: tuple[int, ...]) -> str:
    return "v" + ("_".join(str(c) for c in path) if path else "root")


def _portrait_walk(node: PortraitNode, path: tuple[int, ...], lines: list[str]):
    label = cycle_notation(node.root_perm)
    if node.word is not None:
        label += "\\n" + str(node.word)
    lines.append(f'  {_node_id(path)} [label="{label}"];')
    for i, child in enumerate(node.children, start=1):
        if child.is_trivial():
            continue
        child_path = path + (i,)
        _portrait_walk(child, child_path, lines)
        lines.append(f'  {_node_id(path)} -> {_node_id(child_path)} [label="{i}"];')


def check_orbital_graph_size(point_count: int) -> None:
    """Refuse an orbital graph export past the cap; callers that know the
    level can check before they build the scheme."""
    if point_count > ORBITAL_GRAPH_CAP:
        raise SizeCapError(
            "orbital graph export writes N (N - 1) / 2 edge lines, too many at "
            f"{point_count} points (the cap is {ORBITAL_GRAPH_CAP})",
            size=point_count,
        )


def orbital_graph_dot(scheme: OrbitalScheme) -> Iterator[str]:
    """Level vertices with one edge color per nontrivial class, as chunks of
    DOT text: the header and vertices, then the edges x -> y (y > x) of one
    vertex x at a time, each read off ``scheme.label_row(x)``.

    Symmetric classes are drawn as a single undirected-style edge; for a
    paired class only the x -> y direction is drawn, the reverse pair being
    implied by the pairing.
    """
    check_orbital_graph_size(scheme.point_count)
    degree = scheme.degree
    level = scheme.level
    size = scheme.point_count
    lines = ["digraph orbital {", "  node [shape=circle];"]
    attrs = [""]  # the tail of an edge line per class; x != y is never in class 0
    for i in range(1, scheme.rank):
        color = _PALETTE[(i - 1) % len(_PALETTE)]
        lines.append(f"  // class {i}: color={color}, valency={int(scheme.valencies[i])}, "
                     f"pair={scheme.pairing[i]}")
        undirected = ", dir=none" if scheme.pairing[i] == i else ""
        attrs.append(f" [color={color}{undirected}];\n")
    for x in range(size):
        lines.append(f'  x{x} [label="{Vertex.from_index(degree, level, x)}"];')
    yield "\n".join(lines) + "\n"
    for x in range(size - 1):
        row = scheme.label_row(x)[x + 1:].tolist()
        yield "".join([f"  x{x} -> x{y}{attrs[lab]}"
                       for y, lab in enumerate(row, start=x + 1)])
    yield "}\n"
