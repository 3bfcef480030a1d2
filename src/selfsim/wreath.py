"""Wreath recursions: presentation parsing, the tree action, sections and portraits.

A presentation assigns each generator a permutation of the d subtrees at the
root and a word of generators acting inside each subtree.  Inverses never
need their own rules: the recursion for g^-1 follows from the rule for g.
Words act on vertices on the left, rightmost letter first.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PresentationError, SizeCapError
from .tree import DEFAULT_LEVEL_CAP, Vertex, check_level_size

# One letter of a word: (generator name, +1 or -1).
Letter = tuple[str, int]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_CACHE_LIMIT = 1 << 20
# Longest vertex the letter recursion walks in one call; act and section cut
# longer vertices into chunks of this many letters.
_VERTEX_CHUNK = 128


@dataclass(frozen=True)
class Word:
    """A formal product of generators and their inverses."""

    letters: tuple[Letter, ...] = ()

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((name, -sign) for name, sign in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(name if sign > 0 else f"{name}^-1" for name, sign in self.letters)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse a space-separated word; the single token "e" is the empty word."""
        tokens = text.split()
        if tokens == ["e"]:
            return cls()
        if not tokens:
            raise ValueError("empty word must be written 'e'")
        letters = []
        for tok in tokens:
            name, sign = _parse_token(tok)
            letters.append((name, sign))
        return cls(tuple(letters))

    @classmethod
    def generator(cls, name: str) -> "Word":
        return cls(((name, 1),))


def _parse_token(tok: str) -> Letter:
    if tok.endswith("^-1"):
        name, sign = tok[:-3], -1
    else:
        name, sign = tok, 1
    if name == "e":
        raise ValueError("'e' denotes the empty word and cannot appear inside a word")
    if not _NAME_RE.fullmatch(name):
        raise ValueError(f"bad word token {tok!r}")
    return name, sign


def free_reduce(word: Word, involutions: frozenset[str] = frozenset()) -> Word:
    """Cancel adjacent inverse pairs; declared involutions cancel with themselves."""
    out: list[Letter] = []
    for name, sign in word.letters:
        if name in involutions:
            sign = 1
        if out:
            pname, psign = out[-1]
            if pname == name and (psign == -sign or name in involutions):
                out.pop()
                continue
        out.append((name, sign))
    return Word(tuple(out))


@dataclass(frozen=True)
class GeneratorRule:
    """One line of a wreath recursion: g = root permutation, then d section words."""

    name: str
    root_perm: tuple[int, ...]  # root_perm[i-1] is the image of subtree i
    sections: tuple[Word, ...]  # sections[i-1] acts inside subtree i


@dataclass(frozen=True)
class WreathPresentation:
    degree: int
    rules: tuple[GeneratorRule, ...]
    involutions: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        d = self.degree
        if d < 2:
            raise ValueError(f"degree must be >= 2, got {d}")
        if not self.rules:
            raise ValueError("presentation needs at least one generator")
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        declared = set(names)
        for r in self.rules:
            if sorted(r.root_perm) != list(range(1, d + 1)):
                raise ValueError(f"root permutation of {r.name!r} is not a bijection of 1..{d}")
            if len(r.sections) != d:
                raise ValueError(f"generator {r.name!r} needs exactly {d} section words")
            for w in r.sections:
                for name, _ in w.letters:
                    if name not in declared:
                        raise ValueError(f"section of {r.name!r} uses undeclared generator {name!r}")
        for name in self.involutions:
            if name not in declared:
                raise ValueError(f"involutions list names undeclared generator {name!r}")
            if not _squares_to_identity(self.rule_map[name].root_perm):
                raise ValueError(f"declared involution {name!r} has a root permutation "
                                 "of order greater than 2")

    @cached_property
    def rule_map(self) -> dict[str, GeneratorRule]:
        return {r.name: r for r in self.rules}

    @cached_property
    def generator_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rules)

    def reduce(self, word: Word) -> Word:
        return free_reduce(word, self.involutions)

    def parse_word(self, text: str) -> Word:
        word = Word.parse(text)
        for name, _ in word.letters:
            if name not in self.rule_map:
                raise ValueError(f"undeclared generator {name!r} in word")
        return word

    def to_text(self) -> str:
        """Canonical rendering in the presentation file format."""
        lines = [f"degree: {self.degree}"]
        if self.involutions:
            lines.append("involutions: " + ", ".join(sorted(self.involutions)))
        for r in self.rules:
            words = ", ".join(str(w) for w in r.sections)
            lines.append(f"gen {r.name} = perm {cycle_notation(r.root_perm)} | {words}")
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    # Mutable memo tables; keyed by immutable inputs, so observationally pure.
    @cached_property
    def _act_cache(self) -> dict:
        return {}

    @cached_property
    def _section_cache(self) -> dict:
        return {}

    @cached_property
    def _level_cache(self) -> dict:
        return {}


def _squares_to_identity(perm: tuple[int, ...]) -> bool:
    """Whether a permutation of 1..d is an involution or the identity."""
    return all(perm[perm[i] - 1] == i + 1 for i in range(len(perm)))


def cycle_notation(perm: tuple[int, ...]) -> str:
    """Render a permutation of 1..d in cycle notation; identity is "()"."""
    seen = [False] * len(perm)
    parts = []
    for start in range(1, len(perm) + 1):
        if seen[start - 1] or perm[start - 1] == start:
            continue
        cyc = [start]
        seen[start - 1] = True
        nxt = perm[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt - 1] = True
            nxt = perm[nxt - 1]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


# ---------------------------------------------------------------------------
# parsing


class _Cursor:
    """Single-line scanner that reports 1-based columns on failure."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str, column: int | None = None):
        raise PresentationError(
            message, line=self.lineno, column=(self.pos + 1 if column is None else column)
        )

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def try_literal(self, literal: str) -> bool:
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect_literal(self, literal: str, what: str):
        if not self.try_literal(literal):
            self.error(f"expected {what}")

    def match(self, pattern: str) -> str | None:
        self.skip_ws()
        m = re.compile(pattern).match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group(0)

    def expect(self, pattern: str, what: str) -> str:
        got = self.match(pattern)
        if got is None:
            self.error(f"expected {what}")
        return got

    def end(self):
        if not self.at_end():
            self.error("unexpected trailing text")


def _parse_cycles(cur: _Cursor, degree: int) -> tuple[int, ...]:
    perm = list(range(1, degree + 1))
    used = set()
    saw_empty = False
    count = 0
    if not cur.peek("("):
        cur.error("expected '(' starting the root permutation")
    while cur.peek("("):
        if saw_empty:
            cur.error("the empty cycle '()' must stand alone")
        cur.try_literal("(")
        entries = []
        while (tok := cur.match(r"\d+")) is not None:
            entries.append(int(tok))
        cur.expect_literal(")", "')' closing the cycle")
        count += 1
        if not entries:
            if count > 1:
                cur.error("the empty cycle '()' must stand alone")
            saw_empty = True
            continue
        if len(entries) == 1:
            cur.error("a cycle must list at least two points")
        for c in entries:
            if not 1 <= c <= degree:
                cur.error(f"cycle entry {c} outside 1..{degree}")
            if c in used:
                cur.error(f"letter {c} appears in two cycles")
            used.add(c)
        for a, b in zip(entries, entries[1:] + entries[:1]):
            perm[a - 1] = b
    return tuple(perm)


def _parse_word_tokens(cur: _Cursor) -> Word:
    letters: list[Letter] = []
    first = True
    while True:
        cur.skip_ws()
        start = cur.pos
        tok = cur.match(r"[A-Za-z][A-Za-z0-9_]*(\^-1)?")
        if tok is None:
            if first:
                cur.error("expected a word (generator tokens or 'e')")
            break
        first = False
        if tok in ("e", "e^-1"):
            if letters or tok == "e^-1" or cur.match(r"[A-Za-z]") is not None:
                cur.error("'e' denotes the empty word and must stand alone", column=start + 1)
            return Word()
        letters.append(_parse_token(tok))
    return Word(tuple(letters))


def parse_presentation(text: str) -> WreathPresentation:
    """Parse the presentation file format.

    Grammar, one declaration per line ('#' starts a comment):

        degree: D                      # 2 <= D <= 9
        involutions: n1, n2, ...       # optional, before any gen line
        gen NAME = perm CYCLES | w1, ..., wD
    """
    degree: int | None = None
    involutions: list[str] | None = None
    inv_line = 0
    rules: list[GeneratorRule] = []
    rule_lines: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        cur = _Cursor(line, lineno)

        if degree is None:
            cur.expect_literal("degree:", "the 'degree:' header")
            cur.skip_ws()
            start = cur.pos
            num = cur.expect(r"\d+", "an integer degree")
            if not 2 <= int(num) <= 9:
                cur.error(f"degree must be in 2..9, got {num}", column=start + 1)
            degree = int(num)
            cur.end()
            continue

        if cur.peek("involutions:"):
            if rules:
                cur.error("'involutions:' must come before generator lines")
            if involutions is not None:
                cur.error("duplicate 'involutions:' line")
            cur.try_literal("involutions:")
            involutions = []
            inv_line = lineno
            while True:
                name = cur.expect(r"[A-Za-z][A-Za-z0-9_]*", "a generator name")
                involutions.append(name)
                if not cur.try_literal(","):
                    break
            cur.end()
            continue

        cur.skip_ws()
        if cur.match(r"gen(?=[ \t])") is None:
            cur.error("expected a 'gen' line")
        cur.skip_ws()
        start = cur.pos
        name = cur.expect(r"[A-Za-z][A-Za-z0-9_]*", "a generator name")
        if name == "e":
            cur.error("generator name 'e' is reserved for the empty word", column=start + 1)
        if name in rule_lines:
            cur.error(f"generator {name!r} already declared on line {rule_lines[name]}",
                      column=start + 1)
        cur.expect_literal("=", "'='")
        cur.expect_literal("perm", "'perm'")
        cur.skip_ws()
        start = cur.pos
        root_perm = _parse_cycles(cur, degree)
        if name in (involutions or ()) and not _squares_to_identity(root_perm):
            cur.error(f"declared involution {name!r} has a root permutation of order "
                      "greater than 2", column=start + 1)
        cur.expect_literal("|", "'|' before the section words")
        sections = []
        while True:
            sections.append(_parse_word_tokens(cur))
            if not cur.try_literal(","):
                break
        cur.end()
        if len(sections) != degree:
            cur.error(f"generator {name!r} has {len(sections)} section words, needs {degree}")
        rules.append(GeneratorRule(name, root_perm, tuple(sections)))
        rule_lines[name] = lineno

    if degree is None:
        raise PresentationError("missing 'degree:' header")
    if not rules:
        raise PresentationError("presentation declares no generators")

    declared = set(rule_lines)
    for rule in rules:
        for w in rule.sections:
            for ref, _ in w.letters:
                if ref not in declared:
                    raise PresentationError(
                        f"section of {rule.name!r} uses undeclared generator {ref!r}",
                        line=rule_lines[rule.name],
                    )
    for name in involutions or ():
        if name not in declared:
            raise PresentationError(
                f"involutions list names undeclared generator {name!r}", line=inv_line
            )

    return WreathPresentation(degree, tuple(rules), frozenset(involutions or ()))


def load_presentation(path: str) -> WreathPresentation:
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


# ---------------------------------------------------------------------------
# the action on vertices


def _bound(cache: dict):
    if len(cache) > _CACHE_LIMIT:
        cache.clear()


def _act_letter(pres: WreathPresentation, name: str, sign: int,
                letters: tuple[int, ...]) -> tuple[int, ...]:
    if not letters:
        return letters
    key = (name, sign, letters)
    cache = pres._act_cache
    hit = cache.get(key)
    if hit is not None:
        return hit
    rule = pres.rule_map[name]
    if sign > 0:
        i = letters[0]
        tail = letters[1:]
        for nm, sg in reversed(rule.sections[i - 1].letters):
            tail = _act_letter(pres, nm, sg, tail)
        out = (rule.root_perm[i - 1],) + tail
    else:
        # g^-1 sends (i, tau) to (j, (g|_j)^-1 tau) where the rule sends j to i.
        j = rule.root_perm.index(letters[0]) + 1
        tail = letters[1:]
        for nm, sg in rule.sections[j - 1].letters:
            tail = _act_letter(pres, nm, -sg, tail)
        out = (j,) + tail
    _bound(cache)
    cache[key] = out
    return out


def act(pres: WreathPresentation, word: Word, vertex: Vertex) -> Vertex:
    """Apply a word to a vertex, rightmost letter first."""
    if vertex.degree != pres.degree:
        raise ValueError("vertex degree does not match the presentation")
    for name, _ in reversed(word.letters):
        if name not in pres.rule_map:
            raise ValueError(f"undeclared generator {name!r} in word")
    head, word, letters = _walk_chunks(pres, word, vertex.letters)
    for name, sign in reversed(word.letters):
        letters = _act_letter(pres, name, sign, letters)
    return Vertex(head + letters, pres.degree)


def _section_letter(pres: WreathPresentation, name: str, sign: int,
                    letters: tuple[int, ...]) -> Word:
    if not letters:
        return Word(((name, sign),))
    key = (name, sign, letters)
    cache = pres._section_cache
    hit = cache.get(key)
    if hit is not None:
        return hit
    rule = pres.rule_map[name]
    if sign > 0:
        out = _walk(pres, rule.sections[letters[0] - 1], letters[1:])[1]
    else:
        # (g^-1)|_v = (g|_{g^-1 v})^-1
        pre = _act_letter(pres, name, -1, letters)
        out = _section_letter(pres, name, 1, pre).inverse()
    out = pres.reduce(out)
    _bound(cache)
    cache[key] = out
    return out


def _walk(pres: WreathPresentation, word: Word,
          letters: tuple[int, ...]) -> tuple[tuple[int, ...], Word]:
    """The image of a vertex under a word, and the word's section there."""
    parts = []
    cur = letters
    for name, sign in reversed(word.letters):
        parts.append(_section_letter(pres, name, sign, cur))
        cur = _act_letter(pres, name, sign, cur)
    total = tuple(ch for part in reversed(parts) for ch in part.letters)
    return cur, pres.reduce(Word(total))


def _walk_chunks(pres: WreathPresentation, word: Word, letters: tuple[int, ...]
                 ) -> tuple[tuple[int, ...], Word, tuple[int, ...]]:
    """Split a vertex uv so that v has at most _VERTEX_CHUNK letters; return
    act(w, u), the section w|_u and v.

    The letter recursion is one call deep per vertex letter, so a long u is
    walked a chunk at a time: act(w, u1 u2) = act(w, u1) act(w|_u1, u2) and
    w|_(u1 u2) = (w|_u1)|_u2.  The carried section is reduced like every
    section, which relies on declared involutions being involutions.
    """
    head = ()
    while len(letters) > _VERTEX_CHUNK:
        image, word = _walk(pres, word, letters[:_VERTEX_CHUNK])
        head += image
        letters = letters[_VERTEX_CHUNK:]
    return head, word, letters


def section(pres: WreathPresentation, word: Word, vertex: Vertex) -> Word:
    """The word acting inside the subtree rooted at vertex; freely reduced."""
    if vertex.degree != pres.degree:
        raise ValueError("vertex degree does not match the presentation")
    for name, _ in word.letters:
        if name not in pres.rule_map:
            raise ValueError(f"undeclared generator {name!r} in word")
    _, word, letters = _walk_chunks(pres, word, vertex.letters)
    return _walk(pres, word, letters)[1]


# ---------------------------------------------------------------------------
# level permutations


def generator_level_perms(pres: WreathPresentation, n: int,
                          cap: int = DEFAULT_LEVEL_CAP) -> dict[str, np.ndarray]:
    """Zero-based index permutation of level n for every generator; a declared
    involution that does not square to the identity raises PresentationError."""
    check_level_size(pres.degree, n, cap)
    cache = pres._level_cache
    d = pres.degree
    for k in range(len(cache), n + 1):
        if k == 0:
            cache[0] = {r.name: np.zeros(1, dtype=np.int64) for r in pres.rules}
            continue
        m = d ** (k - 1)
        level = {}
        for rule in pres.rules:
            img = np.empty(m * d, dtype=np.int64)
            for i, target in enumerate(rule.root_perm):
                sec = _compose_level(pres, rule.sections[i], k - 1)
                img[i * m:(i + 1) * m] = (target - 1) * m + sec
            if rule.name in pres.involutions and not np.array_equal(img[img], np.arange(m * d)):
                raise PresentationError(f"declared involution {rule.name!r} does not "
                                        f"square to the identity on level {k}")
            level[rule.name] = img
        cache[k] = level
    return cache[n]


def _compose_level(pres: WreathPresentation, word: Word, n: int) -> np.ndarray:
    """The level-n permutation of a word, from the cached generator ones.

    A letter with permutation p takes acc to acc[p]; its inverse takes acc to
    acc[p^-1], which is one scatter, nxt[p] = acc, so no inverse is stored.
    """
    perms = pres._level_cache[n]
    acc = np.arange(pres.degree**n, dtype=np.int64)
    for name, sign in word.letters:
        p = perms[name]
        if sign > 0:
            acc = acc[p]
        else:
            nxt = np.empty_like(acc)
            nxt[p] = acc
            acc = nxt
    return acc


def level_permutation(pres: WreathPresentation, word: Word, n: int,
                      cap: int = DEFAULT_LEVEL_CAP) -> np.ndarray:
    """The permutation a word induces on level-n vertex indices."""
    for name, _ in word.letters:
        if name not in pres.rule_map:
            raise ValueError(f"undeclared generator {name!r} in word")
    generator_level_perms(pres, n, cap)
    return _compose_level(pres, word, n)


def is_trivial_at_level(pres: WreathPresentation, word: Word, n: int,
                        cap: int = DEFAULT_LEVEL_CAP) -> bool:
    perm = level_permutation(pres, word, n, cap)
    return bool(np.array_equal(perm, np.arange(len(perm))))


def order_at_level(pres: WreathPresentation, word: Word, n: int,
                   cap: int = DEFAULT_LEVEL_CAP) -> int:
    """Multiplicative order of the level-n permutation (1 for the identity)."""
    perm = level_permutation(pres, word, n, cap)
    seen = np.zeros(len(perm), dtype=bool)
    lengths = set()
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.add(length)
    return math.lcm(*lengths) if lengths else 1


# ---------------------------------------------------------------------------
# portraits


@dataclass(frozen=True)
class PortraitNode:
    """Node of a portrait: the induced root permutation, children, and at the
    cut-off depth the reduced section word."""

    root_perm: tuple[int, ...]
    children: tuple["PortraitNode", ...] = ()
    word: Word | None = None

    def is_trivial(self) -> bool:
        if self.root_perm != tuple(range(1, len(self.root_perm) + 1)):
            return False
        if self.word is not None and len(self.word) > 0:
            return False
        return all(c.is_trivial() for c in self.children)


def portrait(pres: WreathPresentation, word: Word, depth: int,
             cap: int = DEFAULT_LEVEL_CAP) -> PortraitNode:
    """Expand the recursion to the given depth; leaves keep their section words.

    The expansion visits every vertex down to that depth, so a depth whose
    level size exceeds the cap is refused first."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    check_level_size(pres.degree, depth, cap)
    word = pres.reduce(word)
    return _portrait(pres, word, depth)


def _portrait(pres: WreathPresentation, word: Word, depth: int) -> PortraitNode:
    d = pres.degree
    perm = level_permutation(pres, word, 1)
    root = tuple(int(x) + 1 for x in perm)
    if depth == 0:
        return PortraitNode(root, (), word)
    children = tuple(
        _portrait(pres, section(pres, word, Vertex((i,), d)), depth - 1)
        for i in range(1, d + 1)
    )
    return PortraitNode(root, children, None)
