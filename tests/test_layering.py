"""Layering rules read off the sources, each with a planted violation that
its matcher must flag, so a pattern with a typo cannot pass silently.

One owner of the recursion rules: only ``wreath.py`` reads a generator's
rule, every other module asks it where a word sends a vertex and what its
section is there; within ``wreath.py`` only the step table's builder
``WreathPresentation._steps`` reads a rule for the action, so the step, and
g^-1's rule with it, is stated once, and no cached property is a second
table derived from it.

verify builds no label row per case: every verify suite reads single labels
or path counts, which take O(sqrt N) per case on the cone route, where a
label row or column, or the full table, is an N-length array per case.

No private imports across modules: an underscored name belongs to its
module; a caller elsewhere uses the public one, so wrapping or replacing
that covers every call."""

import ast
import re
from pathlib import Path

import pytest

import selfsim

SRC = Path(selfsim.__file__).resolve().parent
WREATH = SRC / "wreath.py"

VERIFY = SRC / "verify.py"

RULE_READ = re.compile(r"rule_map|\.sections")
RULE_READ_IN_WREATH = re.compile(r"root_perm\.index|root_perm\[|\.sections\[")
LABEL_ARRAY = re.compile(r"label_row|label_column|\.labels\b")


def _rule_reads(path, text: str) -> list[str]:
    """The lines of a module other than wreath.py that read a rule."""
    return [f"{path}:{i}: {line.strip()}" for i, line in enumerate(text.splitlines(), start=1)
            if RULE_READ.search(line)]


def _reads_outside_builder(path, text: str) -> list[str]:
    """The lines of wreath.py outside the step table's builder that read a
    rule for the action; comments are not read."""
    builders = [node for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.FunctionDef) and node.name == "_steps"]
    assert builders, "no function '_steps': the step table's builder is gone or renamed"
    builder = builders[0]
    return [f"{path}:{i}: {line.strip()}" for i, line in enumerate(text.splitlines(), start=1)
            if not builder.lineno <= i <= builder.end_lineno
            and RULE_READ_IN_WREATH.search(line.split("#", 1)[0])]


def _cached_views(text: str) -> list[str]:
    """The cached properties of WreathPresentation other than _steps that
    read the step table or a rule's action."""
    cls = next(node for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.ClassDef) and node.name == "WreathPresentation")
    return [node.name for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name != "_steps"
            and any(isinstance(dec, ast.Name) and dec.id == "cached_property"
                    for dec in node.decorator_list)
            and re.search(r"_steps|root_perm|sections", ast.get_source_segment(text, node))]


def test_only_wreath_reads_the_rules():
    bad = [hit for path in sorted(SRC.rglob("*.py")) if path.name != "wreath.py"
           for hit in _rule_reads(path, path.read_text())]
    assert not bad, "the recursion rules are read outside wreath.py:\n" + "\n".join(bad)


def test_only_the_step_table_reads_a_rule_in_wreath():
    bad = _reads_outside_builder(WREATH, WREATH.read_text())
    assert not bad, ("a rule is read outside the step table's builder:\n" + "\n".join(bad))


def test_the_step_table_has_no_cached_view():
    assert _cached_views(WREATH.read_text()) == []


@pytest.mark.parametrize("line", ["rules = pres.rule_map", "for w in rule.sections:"])
def test_a_planted_rule_read_is_flagged(line):
    assert _rule_reads("planted.py", f"x = 1\n{line}\n") == [f"planted.py:2: {line}"]


PLANTED_WREATH = '''
class WreathPresentation:
    @cached_property
    def _steps(self):
        return [r.root_perm.index(1) for r in self.rules]

def image(rule, x):
    return rule.root_perm[x - 1]  # planted
'''


def test_a_planted_read_outside_the_builder_is_flagged():
    assert _reads_outside_builder("planted.py", PLANTED_WREATH) == [
        "planted.py:8: return rule.root_perm[x - 1]  # planted"]


def test_a_missing_builder_fails_with_a_message():
    with pytest.raises(AssertionError, match="step table's builder is gone"):
        _reads_outside_builder("planted.py", PLANTED_WREATH.replace("_steps", "_table"))


def test_a_planted_cached_view_is_flagged():
    planted = PLANTED_WREATH.replace("\ndef image", '''
    @cached_property
    def _coded(self):
        return tuple(self._steps)

def image''')
    assert _cached_views(planted) == ["_coded"]


def _label_arrays(path, text: str) -> list[str]:
    """The lines that name an N-length label array, comments included."""
    return [f"{path}:{i}: {line.strip()}" for i, line in enumerate(text.splitlines(), start=1)
            if LABEL_ARRAY.search(line)]


def _private_imports(path, text: str) -> list[str]:
    """The underscored names, dunders aside, that a module imports from
    another module of the package."""
    return [f"{path}:{node.lineno}: {alias.name}"
            for node in ast.walk(ast.parse(text, str(path)))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_verify_builds_no_label_row_per_case():
    bad = _label_arrays(VERIFY, VERIFY.read_text())
    assert not bad, "a verify suite builds an N-length label array:\n" + "\n".join(bad)


def test_no_private_imports_across_modules():
    bad = [hit for path in sorted(SRC.glob("*.py"))
           for hit in _private_imports(path, path.read_text())]
    assert not bad, "private names imported from another module:\n" + "\n".join(bad)


@pytest.mark.parametrize("line", ["row = scheme.label_row(x)", "col = scheme.label_column(y)",
                                  "table = scheme.labels  # whole"])
def test_a_planted_label_array_is_flagged(line):
    text = f"k = scheme.label(x, y)\n{line}\nlabels = []\n"
    assert _label_arrays("planted.py", text) == [f"planted.py:2: {line}"]


def test_a_planted_private_import_is_flagged():
    text = ("from .wreath import Word, _check_word\nfrom . import _private\n"
            "from .tree import __all__\nfrom os import _exit\n")
    assert _private_imports("planted.py", text) == ["planted.py:1: _check_word",
                                                   "planted.py:2: _private"]
