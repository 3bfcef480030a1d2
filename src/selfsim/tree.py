"""Vertices, levels and rays of the d-regular rooted tree.

Vertices are finite strings over the alphabet {1, ..., d}; the root is the
empty string and renders as "-".  Level n holds the d^n strings of length n
in lexicographic order, which fixes the integer index used everywhere else.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import SizeCapError

DEFAULT_LEVEL_CAP = 1 << 20


_COUNT_DIGITS = 4300  # longest vertex count a refusal writes out in decimal


def check_level_size(degree: int, level: int, cap: int = DEFAULT_LEVEL_CAP) -> int:
    """Return d**n, for d >= 2, after checking it against the size cap.

    A level no shorter than the cap's bit length is past the cap, so it is
    refused without forming d**n; a count longer than _COUNT_DIGITS digits
    is written as the power.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level < cap.bit_length():
        size = degree**level
        if size <= cap:
            return size
    size = degree**level if level * math.log10(degree) < _COUNT_DIGITS else None
    count = f"{degree}^{level}" if size is None else size
    raise SizeCapError(
        f"level {level} of the {degree}-regular tree has {count} vertices, cap is {cap}",
        size=size,
    )


@dataclass(frozen=True)
class Vertex:
    """A tree vertex: a word over {1, ..., degree}."""

    letters: tuple[int, ...]
    degree: int

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError(f"tree degree must be >= 2, got {self.degree}")
        for c in self.letters:
            if not 1 <= c <= self.degree:
                raise ValueError(f"letter {c} outside 1..{self.degree}")

    @property
    def level(self) -> int:
        return len(self.letters)

    def concat(self, other: "Vertex") -> "Vertex":
        if other.degree != self.degree:
            raise ValueError("cannot concatenate vertices of different tree degrees")
        return Vertex(self.letters + other.letters, self.degree)

    def index(self) -> int:
        """Lexicographic rank of this vertex within its level."""
        i = 0
        for c in self.letters:
            i = i * self.degree + (c - 1)
        return i

    @classmethod
    def root(cls, degree: int) -> "Vertex":
        return cls((), degree)

    @classmethod
    def from_index(cls, degree: int, level: int, index: int) -> "Vertex":
        if not 0 <= index < degree**level:
            raise ValueError(f"index {index} outside level {level} of the degree-{degree} tree")
        letters = []
        for _ in range(level):
            index, rem = divmod(index, degree)
            letters.append(rem + 1)
        return cls(tuple(reversed(letters)), degree)

    @classmethod
    def parse(cls, text: str, degree: int) -> "Vertex":
        """The vertex that ``str`` writes as text: one digit per letter up to
        degree 9, letters joined by dots above it, and "-" or "" the root."""
        if text == "-" or text == "":
            return cls.root(degree)
        if degree > 9:
            parts = text.split(".")
            if not all(p.isascii() and p.isdigit() and p[0] != "0" for p in parts):
                raise ValueError(f"vertex string may only contain letters 1..{degree} "
                                 f"joined by '.', got {text!r}")
            return cls(tuple(map(int, parts)), degree)
        letters = []
        for ch in text:
            if not ch.isdigit() or ch == "0":
                raise ValueError(f"vertex string may only contain digits 1..{degree}, got {text!r}")
            letters.append(int(ch))
        v = cls(tuple(letters), degree)
        return v

    def __str__(self) -> str:
        if not self.letters:
            return "-"
        if self.degree > 9:
            return ".".join(str(c) for c in self.letters)
        return "".join(str(c) for c in self.letters)


@dataclass(frozen=True)
class Ray:
    """An infinite path from the root: a finite head, then a periodic tail."""

    head: Vertex
    periodic_tail: tuple[int, ...]

    def __post_init__(self):
        if not self.periodic_tail:
            raise ValueError("periodic tail must be nonempty")
        for c in self.periodic_tail:
            if not 1 <= c <= self.head.degree:
                raise ValueError(f"tail letter {c} outside 1..{self.head.degree}")

    @property
    def degree(self) -> int:
        return self.head.degree

    def prefix(self, n: int) -> Vertex:
        """The level-n vertex this ray passes through."""
        if n < 0:
            raise ValueError(f"level must be >= 0, got {n}")
        letters = list(self.head.letters[:n])
        tail = itertools.cycle(self.periodic_tail)
        while len(letters) < n:
            letters.append(next(tail))
        return Vertex(tuple(letters), self.degree)

    def __str__(self) -> str:
        head = "".join(str(c) for c in self.head.letters)
        tail = "".join(str(c) for c in self.periodic_tail)
        return f"{head}({tail})*"


def all_d_ray(degree: int) -> Ray:
    """The rightmost ray d, dd, ddd, ..."""
    return Ray(Vertex.root(degree), (degree,))


def parse_ray(text: str, degree: int) -> Ray:
    """Parse a ray given as a digit string (periodic tail) or the shorthand "dinf"."""
    if text in ("dinf", "d^inf", "dd...", ""):
        return all_d_ray(degree)
    letters = []
    for ch in text:
        if not ch.isdigit() or ch == "0":
            raise ValueError(f"ray must be digits 1..{degree} or 'dinf', got {text!r}")
        letters.append(int(ch))
    return Ray(Vertex.root(degree), tuple(letters))
