"""README's list of the library's main entry points against what the
package exports."""

import re
from pathlib import Path

import selfsim

README = Path(__file__).resolve().parents[1] / "README.md"
# Public names dropped from the library; each has a direct replacement
# (see README and CHANGES.md).
REMOVED = ("schreier_generators", "hecke_dimension", "degree_multiset",
           "tower_nesting_check", "vertices_at_level", "is_trivial_at_level",
           "degree_multiset_from_p", "multiplicities", "common_eigensystem")


def _entry_points(text):
    """The backquoted names of the paragraph that opens "The main entry points:"."""
    start = text.index("The main entry points:")
    paragraph = text[start:text.index("\n\n", start)]
    return re.findall(r"`([^`]+)`", paragraph)


def test_readme_names_only_exported_functions():
    names = _entry_points(README.read_text(encoding="utf-8"))
    assert len(names) >= 10, names
    assert [name for name in names if name not in selfsim.__all__] == []
    for name in REMOVED:
        assert name not in names
        assert name not in selfsim.__all__
        assert not hasattr(selfsim, name), name
