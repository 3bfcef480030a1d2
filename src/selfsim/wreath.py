"""Wreath recursions: presentation parsing, the tree action, sections and portraits.

A presentation assigns each generator a permutation of the d subtrees at the
root and a word of generators acting inside each subtree.  Inverses never
need their own rules: the recursion for g^-1 follows from the rule for g,
and a presentation's step table states it once, per letter and vertex
letter.  Words act on vertices on the left, rightmost letter first.
``letter_step``, ``section``, portraits, ``act`` and the level permutations
all read that table; ``act`` hands a vertex's last _VERTEX_CHUNK letters to
a letter recursion memoized per presentation.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import PresentationError, SizeCapError
from .tree import DEFAULT_LEVEL_CAP, Vertex, check_level_size

# One letter of a word: (generator name, +1 or -1).
Letter = tuple[str, int]
# One step of a letter at a vertex letter: the image, and the letters of the
# section there as spelled and freely reduced, the reduced ones reversed.
Step = tuple[int, tuple[Letter, ...], tuple[Letter, ...]]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_CACHE_LIMIT = 1 << 20
# Most vertex letters the memoized letter recursion takes in one act call.
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
        for r in self.rules:
            if sorted(r.root_perm) != list(range(1, d + 1)):
                raise ValueError(f"root permutation of {r.name!r} is not a bijection of 1..{d}")
            if len(r.sections) != d:
                raise ValueError(f"generator {r.name!r} needs exactly {d} section words")
        # Sorted, so that a set's iteration order never picks the message.
        for message, _ in _undeclared(self.rules, sorted(self.involutions)):
            raise ValueError(message)
        for name in sorted(self.involutions):
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
        _check_word(self, word)
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

    @cached_property
    def _steps(self) -> dict[Letter, tuple[Step, ...]]:
        """The one step of the recursion: _steps[letter][x - 1] is the letter's
        Step at the vertex letter x, reduced with no involutions.  g sends x
        to g(x) and leaves g|_x; g^-1 sends x to j = g^-1(x) and leaves
        (g|_j)^-1."""
        steps = {}
        for r in self.rules:
            preimages = [r.root_perm.index(x) + 1 for x in range(1, self.degree + 1)]
            for sign, pieces in ((1, zip(r.root_perm, r.sections)),
                                 (-1, ((j, r.sections[j - 1].inverse()) for j in preimages))):
                steps[r.name, sign] = tuple((image, w.letters, free_reduce(w).letters[::-1])
                                            for image, w in pieces)
        return steps

    @cached_property
    def _spelling(self) -> tuple[dict[Letter, Letter], int]:
        """Each letter's inverse, and the most letters that one step spells."""
        return ({(name, sign): (name, -sign) for name, sign in self._steps},
                max(len(spelled) for pieces in self._steps.values() for _, spelled, _ in pieces))

    # Mutable memo tables; keyed by immutable inputs, so observationally pure.
    @cached_property
    def _act_cache(self) -> dict:
        return {}

    @cached_property
    def _level_cache(self) -> dict:
        return {}


def _undeclared(rules, involutions):
    """Yield (message, rule name or None) for every undeclared generator that
    a section word names, rules in the order given, then for every one that
    the involutions name, in the order given."""
    declared = {r.name for r in rules}
    for r in rules:
        for w in r.sections:
            for name, _ in w.letters:
                if name not in declared:
                    yield f"section of {r.name!r} uses undeclared generator {name!r}", r.name
    for name in involutions:
        if name not in declared:
            yield f"involutions list names undeclared generator {name!r}", None


def _check_word(pres: WreathPresentation, word: Word):
    for name, _ in word.letters:
        if name not in pres.rule_map:
            raise ValueError(f"undeclared generator {name!r} in word")


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

    for message, name in _undeclared(rules, involutions or ()):
        raise PresentationError(message, line=inv_line if name is None else rule_lines[name])

    return WreathPresentation(degree, tuple(rules), frozenset(involutions or ()))


def load_presentation(path: str) -> WreathPresentation:
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


# ---------------------------------------------------------------------------
# the action on vertices


def letter_step(pres: WreathPresentation, letters: tuple[Letter, ...],
                x: int) -> tuple[int, tuple[Letter, ...]]:
    """Where a word's letters send the vertex letter x (1-based), and the
    letters of the word's section there, unreduced.  The letters act
    rightmost first, each by its step in the presentation's step table."""
    x, walked = _walk(pres, reversed(letters), x)
    return x, tuple(chain.from_iterable(spelled for _, spelled, _ in reversed(walked)))


def _walk(pres: WreathPresentation, rev: Iterable[Letter], x: int) -> tuple[int, list[Step]]:
    """Where the letters of rev, in that order, send the vertex letter x, and
    the step table's entry for each letter on the way."""
    steps, walked = pres._steps, []
    for letter in rev:
        step = steps[letter][x - 1]
        walked.append(step)
        x = step[0]
    return x, walked


def _descend(pres: WreathPresentation, word: Word, vertex: Vertex,
             stop: int) -> tuple[tuple[int, ...], Sequence[Letter]]:
    """The image of the vertex's first stop letters under a word, and the
    word's section there freely reduced with no involutions, which holds in
    every group, with its letters reversed.  A vertex of another degree or an
    undeclared generator is refused first.

    Each section is spelled in one pass over the word's letters, rightmost
    first: a letter's reduced piece cancels only where it meets the section
    spelled so far.  A section can double in length with every letter, so
    one whose pieces hold more than DEFAULT_LEVEL_CAP letters before
    reduction is refused before it is spelled out."""
    if vertex.degree != pres.degree:
        raise ValueError("vertex degree does not match the presentation")
    _check_word(pres, word)
    inverse, longest = pres._spelling
    path, rev, image = vertex.letters[:stop], word.letters[::-1], []
    for x in path:
        if not rev:
            return tuple(image) + path[len(image):], rev
        x, walked = _walk(pres, rev, x)
        if len(rev) * longest > DEFAULT_LEVEL_CAP:
            size = sum(len(spelled) for _, spelled, _ in walked)
            if size > DEFAULT_LEVEL_CAP:
                raise SizeCapError(f"the section below letter {len(image) + 1} of the vertex "
                                   f"has {size} letters before reduction, more than the cap "
                                   f"of {DEFAULT_LEVEL_CAP}", size=size)
        image.append(x)
        rev = []
        for _, _, piece in walked:
            k = 0
            while k < len(piece) and rev and rev[-1] == inverse[piece[k]]:
                rev.pop()
                k += 1
            rev.extend(piece[k:] if k else piece)
    return tuple(image), rev


def _act_letter(pres: WreathPresentation, letter: Letter,
                letters: tuple[int, ...]) -> tuple[int, ...]:
    if not letters:
        return letters
    key = (letter, letters)
    cache = pres._act_cache
    hit = cache.get(key)
    if hit is not None:
        return hit
    image, _, piece = pres._steps[letter][letters[0] - 1]
    tail = letters[1:]
    for inner in piece:
        tail = _act_letter(pres, inner, tail)
    out = (image,) + tail
    if len(cache) > _CACHE_LIMIT:
        cache.clear()
    cache[key] = out
    return out


def act(pres: WreathPresentation, word: Word, vertex: Vertex) -> Vertex:
    """Apply a word to a vertex, rightmost letter first: act(w, uv) is
    act(w, u) act(w|_u, v), v the last _VERTEX_CHUNK letters, since the
    letter recursion is one call deep per vertex letter."""
    cut = max(len(vertex.letters) - _VERTEX_CHUNK, 0)
    head, rev = _descend(pres, word, vertex, cut)
    tail = vertex.letters[cut:]
    for letter in rev:
        tail = _act_letter(pres, letter, tail)
    return Vertex(head + tail, pres.degree)


def section(pres: WreathPresentation, word: Word, vertex: Vertex) -> Word:
    """The word acting inside the subtree rooted at vertex; freely reduced."""
    rev = _descend(pres, word, vertex, len(vertex.letters))[1]
    return pres.reduce(Word(tuple(reversed(rev))))


# ---------------------------------------------------------------------------
# level permutations


def generator_level_perms(pres: WreathPresentation, n: int,
                          cap: int = DEFAULT_LEVEL_CAP) -> dict[str, np.ndarray]:
    """Zero-based index permutation of level n for every generator; a declared
    involution that does not square to the identity raises PresentationError."""
    check_level_size(pres.degree, n, cap)
    cache, d = pres._level_cache, pres.degree
    if not cache:
        cache[0] = {name: np.zeros(1, dtype=np.int64) for name in pres.generator_names}
    for k in range(len(cache), n + 1):
        m = d ** (k - 1)
        level = {}
        for name in pres.generator_names:
            img = np.empty(m * d, dtype=np.int64)
            for i, (target, spelled, _) in enumerate(pres._steps[name, 1]):
                img[i * m:(i + 1) * m] = (target - 1) * m + _compose_level(pres, spelled, k - 1)
            if name in pres.involutions and not np.array_equal(img[img], np.arange(m * d)):
                raise PresentationError(f"declared involution {name!r} does not "
                                        f"square to the identity on level {k}")
            level[name] = img
        cache[k] = level
    return cache[n]


def _compose_level(pres: WreathPresentation, letters: tuple[Letter, ...],
                   n: int) -> np.ndarray:
    """The level-n permutation of a word's letters, from the cached generator ones.

    A letter with permutation p takes acc to acc[p]; its inverse takes acc to
    acc[p^-1], which is one scatter, nxt[p] = acc, so no inverse is stored.
    """
    perms = pres._level_cache[n]
    acc = np.arange(pres.degree**n, dtype=np.int64)
    for name, sign in letters:
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
    _check_word(pres, word)
    generator_level_perms(pres, n, cap)
    return _compose_level(pres, word.letters, n)


def order_at_level(pres: WreathPresentation, word: Word, n: int,
                   cap: int = DEFAULT_LEVEL_CAP) -> int:
    """Multiplicative order of the level-n permutation (1 for the identity)."""
    from .orbits import permutation_cycles  # orbits imports this module
    return permutation_cycles(level_permutation(pres, word, n, cap))[2]


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
    _check_word(pres, word)
    word = pres.reduce(word)
    steps = [letter_step(pres, word.letters, x) for x in range(1, pres.degree + 1)]
    root = tuple(image for image, _ in steps)
    if depth == 0:
        return PortraitNode(root, (), word)
    return PortraitNode(root, tuple(portrait(pres, Word(letters), depth - 1, cap)
                                    for _, letters in steps), None)
