"""Layering rules read off the sources, each with a planted violation that
its matcher must flag, so a pattern with a typo cannot pass silently.

One owner of the recursion rules: only ``wreath.py`` reads a generator's
rule, every other module asks it where a word sends a vertex and what its
section is there; within ``wreath.py`` only the step table's builder
``WreathPresentation._steps`` reads a rule for the action, so the step, and
g^-1's rule with it, is stated once, and no cached property is a second
table derived from it."""

import ast
import re
from pathlib import Path

import pytest

import selfsim

SRC = Path(selfsim.__file__).resolve().parent
WREATH = SRC / "wreath.py"

RULE_READ = re.compile(r"rule_map|\.sections")
RULE_READ_IN_WREATH = re.compile(r"root_perm\.index|root_perm\[|\.sections\[")


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
