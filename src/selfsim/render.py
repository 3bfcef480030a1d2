"""Graphviz DOT export for portraits and orbital graphs."""

from __future__ import annotations

from .errors import SizeCapError
from .scheme import OrbitalScheme
from .tree import Vertex
from .wreath import PortraitNode, cycle_notation

_PALETTE = (
    "red", "blue", "forestgreen", "orange", "purple", "brown",
    "cadetblue", "magenta", "darkgoldenrod", "navy", "turquoise", "gray40",
)
ORBITAL_GRAPH_CAP = 4096  # the export reads the full N x N label table


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
            "orbital graph export needs the materialized label table "
            f"({point_count} points is past the cap)",
            size=point_count,
        )


def orbital_graph_dot(scheme: OrbitalScheme) -> str:
    """Level vertices with one edge color per nontrivial class.

    Symmetric classes are drawn as a single undirected-style edge; for a
    paired class only the x -> y direction is drawn, the reverse pair being
    implied by the pairing.
    """
    check_orbital_graph_size(scheme.point_count)
    degree = scheme.transversal.base.degree
    level = scheme.level
    size = scheme.point_count
    lines = ["digraph orbital {", "  node [shape=circle];"]
    for i in range(1, scheme.rank):
        color = _PALETTE[(i - 1) % len(_PALETTE)]
        lines.append(f"  // class {i}: color={color}, valency={int(scheme.valencies[i])}, "
                     f"pair={scheme.pairing[i]}")
    for x in range(size):
        lines.append(f'  x{x} [label="{Vertex.from_index(degree, level, x)}"];')
    for x in range(size):
        for y in range(x + 1, size):
            lab = int(scheme.labels[x, y])
            color = _PALETTE[(lab - 1) % len(_PALETTE)]
            if scheme.pairing[lab] == lab:
                lines.append(f"  x{x} -> x{y} [color={color}, dir=none];")
            else:
                lines.append(f"  x{x} -> x{y} [color={color}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
