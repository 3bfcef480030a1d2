"""Wreath recursions: presentation parsing, the tree action, sections and portraits.

A presentation assigns each generator a permutation of the d subtrees at the
root and a word of generators acting inside each subtree.  Inverses never
need their own rules: the recursion for g^-1 follows from the rule for g,
and a presentation's step table states it once, per letter and vertex
letter, on integer letter codes, each letter's inverse one xor away.  Words
act on vertices on the left, rightmost letter first.  ``letter_step``,
``walk``, portraits and the level permutations all read that one table.
``encode`` and ``decode`` turn a ``Word`` into codes and back, and
``inverse_codes`` and ``reduce_codes`` are ``Word.inverse`` and
``pres.reduce`` on codes.  ``walk`` moves a vertex's letters by a coded word
one vertex letter at a time, reducing the section at every level; ``act``
and ``section`` are its ``Word`` and ``Vertex`` wrappers.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import PresentationError, SizeCapError
from .tree import DEFAULT_LEVEL_CAP, Vertex, check_level_size

# One letter of a word: (generator name, +1 or -1).
Letter = tuple[str, int]
# One step of a letter at a vertex letter, on letter codes: the image, and
# the codes of the section there as spelled and freely reduced, the reduced
# ones reversed.
Step = tuple[int, tuple[int, ...], tuple[int, ...]]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


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
        return " ".join(name if sign > 0 else f"{name}^-1" for name, sign in self.letters) or "e"

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse a space-separated word; the single token "e" is the empty word."""
        tokens = text.split()
        if tokens == ["e"]:
            return cls()
        if not tokens:
            raise ValueError("empty word must be written 'e'")
        return cls(tuple(map(_parse_token, tokens)))

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
        for w in chain.from_iterable(r.sections for r in self.rules):
            _check_word(self, w)
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
    def _steps(self) -> tuple[dict[Letter, int], tuple[Letter, ...],
                              tuple[tuple[Step, ...], ...], int]:
        """The one step of the recursion, on letter codes: letter (g_i, +1) is
        code 2i and (g_i, -1) is 2i + 1, so a letter's inverse is code ^ 1.
        Each letter's code, each code's letter, table[code][x - 1] the Step
        of the letter at the vertex letter x, reduced with no involutions,
        and the most letters that one step spells.  g sends x to g(x) and
        leaves g|_x; g^-1 sends x to j = g^-1(x) and leaves (g|_j)^-1."""
        letters = tuple((name, sign) for name in self.generator_names for sign in (1, -1))
        codes = {letter: code for code, letter in enumerate(letters)}
        table = tuple(tuple((image, tuple(codes[c] for c in w.letters),
                             tuple(codes[c] for c in reversed(free_reduce(w).letters)))
                            for image, w in pieces)
                      for r in self.rules
                      for pieces in (zip(r.root_perm, r.sections),
                                     ((j, r.sections[j - 1].inverse())
                                      for j in (r.root_perm.index(x) + 1
                                                for x in range(1, self.degree + 1)))))
        return codes, letters, table, max(len(s) for pieces in table for _, s, _ in pieces)

    # The level permutations built so far, by level: a mutable memo keyed by
    # immutable inputs, so observationally pure.
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
    for name, sign in word.letters:
        if name not in pres.rule_map:
            raise ValueError(f"undeclared generator {name!r} in word")
        if sign not in (1, -1):
            raise ValueError(f"letter {(name, sign)!r} has a sign other than +1 or -1")


def _squares_to_identity(perm: tuple[int, ...]) -> bool:
    """Whether a permutation of 1..d is an involution or the identity."""
    return all(perm[perm[i] - 1] == i + 1 for i in range(len(perm)))


def cycle_notation(perm: tuple[int, ...]) -> str:
    """Render a permutation of 1..d in cycle notation; identity is "()"."""
    seen, parts = set(), []
    for start in range(1, len(perm) + 1):
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = perm[x - 1]
        if len(cyc) > 1:
            parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


# ---------------------------------------------------------------------------
# parsing


class _Cursor:
    """Single-line scanner that reports 1-based columns on failure."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str, column: int | None = None):
        raise PresentationError(message, line=self.lineno,
                                column=self.pos + 1 if column is None else column)

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


def encode(pres: WreathPresentation, word: Word) -> tuple[int, ...]:
    """A word's letter codes (``WreathPresentation._steps``), left to right."""
    try:
        return tuple(map(pres._steps[0].__getitem__, word.letters))
    except KeyError:
        _check_word(pres, word)
        raise


def decode(pres: WreathPresentation, codes: Iterable[int]) -> Word:
    """The word whose letter codes these are."""
    return Word(tuple(map(pres._steps[1].__getitem__, codes)))


def inverse_codes(codes: tuple[int, ...]) -> tuple[int, ...]:
    """The codes of the inverse of a coded word."""
    return tuple([c ^ 1 for c in reversed(codes)])


def reduce_codes(pres: WreathPresentation, codes: Iterable[int]) -> tuple[int, ...]:
    """``pres.reduce`` on letter codes: a declared involution's code drops
    its sign bit and cancels with itself, any other code with its inverse."""
    involutions, out = {pres._steps[0][name, 1] for name in pres.involutions}, []
    for c in codes:
        if (c & -2) in involutions:
            c &= -2
        if out and out[-1] == (c if c in involutions else c ^ 1):
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def letter_step(pres: WreathPresentation, letters: tuple[Letter, ...],
                x: int) -> tuple[int, tuple[Letter, ...]]:
    """Where a word's letters send the vertex letter x (1-based), and the
    letters of the word's section there, unreduced.  The letters act
    rightmost first, each by its step in the presentation's step table.  A
    vertex letter outside 1..d or a letter not in the table is refused."""
    if not 1 <= x <= pres.degree:
        raise ValueError(f"vertex letter {x} is outside 1..{pres.degree}")
    table, walked = pres._steps[2], []
    for code in reversed(encode(pres, Word(tuple(letters)))):
        x, spelled, _ = table[code][x - 1]
        walked.append(spelled)
    return x, decode(pres, chain.from_iterable(reversed(walked))).letters


def walk(pres: WreathPresentation, codes: tuple[int, ...],
         letters: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The image of a vertex's letters under a coded word, and the codes of
    the word's section there, freely reduced with no involutions, which holds
    in every group (at the root, the codes as given).  The letters are
    trusted to lie in 1..d: ``act`` takes them from a ``Vertex`` and
    ``verify`` draws them so.  Each section is spelled in one pass over its
    codes, rightmost first: each code of a letter's reduced piece cancels
    the last code spelled or is appended.  A section can double in length
    with every letter, so one whose pieces hold more than DEFAULT_LEVEL_CAP
    letters before reduction is refused before it is spelled out."""
    _, _, table, longest = pres._steps
    rev, image = codes[::-1], []
    for x in letters:
        if not rev:
            return tuple(image) + letters[len(image):], ()
        if len(rev) * longest > DEFAULT_LEVEL_CAP:
            size, y = 0, x
            for code in rev:
                y, spelled, _ = table[code][y - 1]
                size += len(spelled)
            if size > DEFAULT_LEVEL_CAP:
                raise SizeCapError(f"the section below letter {len(image) + 1} of the vertex "
                                   f"has {size} letters before reduction, more than the cap "
                                   f"of {DEFAULT_LEVEL_CAP}", size=size)
        below = []
        for code in rev:
            x, _, piece = table[code][x - 1]
            for c in piece:
                if below and below[-1] == c ^ 1:
                    below.pop()
                else:
                    below.append(c)
        image.append(x)
        rev = below
    return tuple(image), tuple(rev[::-1])


def _coded(pres: WreathPresentation, word: Word, vertex: Vertex) -> tuple[int, ...]:
    """A word's codes; a vertex of another degree is refused first."""
    if vertex.degree != pres.degree:
        raise ValueError("vertex degree does not match the presentation")
    return encode(pres, word)


def act(pres: WreathPresentation, word: Word, vertex: Vertex) -> Vertex:
    """Apply a word to a vertex, rightmost letter first."""
    return Vertex(walk(pres, _coded(pres, word, vertex), vertex.letters)[0], pres.degree)


def section(pres: WreathPresentation, word: Word, vertex: Vertex) -> Word:
    """The word acting inside the subtree rooted at vertex; freely reduced."""
    return pres.reduce(decode(pres, walk(pres, _coded(pres, word, vertex), vertex.letters)[1]))


# ---------------------------------------------------------------------------
# level permutations


def generator_level_perms(pres: WreathPresentation, n: int,
                          cap: int = DEFAULT_LEVEL_CAP) -> dict[str, np.ndarray]:
    """Zero-based index permutation of level n for every generator; a declared
    involution that does not square to the identity raises PresentationError.

    Each level is composed from the cached one below.  Level n maps onto
    every level below it, so g^2 = 1 there holds on all of them: the
    involutions are checked once, on the top level built.  Only where one
    fails are the levels built by this call searched upward, and the lowest
    failing level is named, with its first failing generator in generator
    order; no level from that one up stays cached."""
    check_level_size(pres.degree, n, cap)
    cache, d, table = pres._level_cache, pres.degree, pres._steps[2]
    if not cache:
        cache[0] = {name: np.zeros(1, dtype=np.int64) for name in pres.generator_names}
    built = len(cache)
    for k in range(built, n + 1):
        m = d ** (k - 1)
        level = {}
        for g, name in enumerate(pres.generator_names):
            img = np.empty(m * d, dtype=np.int64)
            for i, (target, spelled, _) in enumerate(table[2 * g]):
                img[i * m:(i + 1) * m] = (target - 1) * m + _compose_level(pres, spelled, k - 1)
            level[name] = img
        cache[k] = level
    if built <= n and _false_involution(pres, n) is not None:
        for k in range(built, n + 1):
            name = _false_involution(pres, k)
            if name is not None:
                for j in range(k, n + 1):
                    del cache[j]
                raise PresentationError(f"declared involution {name!r} does not "
                                        f"square to the identity on level {k}")
    return cache[n]


def _false_involution(pres: WreathPresentation, k: int) -> str | None:
    """The first declared involution, in generator order, whose cached level-k
    permutation does not square to the identity, or None."""
    perms = pres._level_cache[k]
    identity = np.arange(pres.degree**k)
    return next((name for name in pres.generator_names if name in pres.involutions
                 and not np.array_equal(perms[name][perms[name]], identity)), None)


def _compose_level(pres: WreathPresentation, codes: Iterable[int], n: int) -> np.ndarray:
    """The level-n permutation of a word's letter codes, from the cached
    generator ones.

    Code c is a letter of generator c >> 1, inverted when c & 1.  A letter
    with permutation p takes acc to acc[p]; its inverse takes acc to
    acc[p^-1], which is one scatter, nxt[p] = acc, so no inverse is stored.
    acc starts as the first letter's permutation, not the identity, so a word
    of one positive letter is the cached array itself: only the callers that
    hand the result out copy it, and none writes to it.
    """
    perms, names = pres._level_cache[n], pres.generator_names
    acc = None  # the identity, until the first letter
    for code in codes:
        p = perms[names[code >> 1]]
        if code & 1:
            nxt = np.empty_like(p)
            nxt[p] = np.arange(len(p)) if acc is None else acc
            acc = nxt
        else:
            acc = p if acc is None else acc[p]
    return np.arange(pres.degree**n, dtype=np.int64) if acc is None else acc


def level_permutation(pres: WreathPresentation, word: Word, n: int,
                      cap: int = DEFAULT_LEVEL_CAP) -> np.ndarray:
    """The permutation a word induces on level-n vertex indices."""
    codes = encode(pres, word)
    perms = generator_level_perms(pres, n, cap)
    perm = _compose_level(pres, codes, n)
    return perm.copy() if any(perm is p for p in perms.values()) else perm


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
        return (self.root_perm == tuple(range(1, len(self.root_perm) + 1))
                and not self.word and all(c.is_trivial() for c in self.children))


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
