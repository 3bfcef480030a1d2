"""The memoized letter recursion that computed act, section and portraits
before the one-step rule ``wreath.letter_step``, as a reference for them.

The section of one letter at a vertex is found by recursing on the rule's
section word one vertex letter down, and every section is reduced with the
declared involutions as it is made.  A vertex longer than ``chunk`` letters
is walked a chunk at a time, carrying the reduced section.  Each call keeps
its own memo tables, so no state is shared with the library or between calls.
"""

from selfsim.tree import Vertex
from selfsim.wreath import (PortraitNode, Word, WreathPresentation,
                            level_permutation)

CHUNK = 128


class _Recursion:
    def __init__(self, pres: WreathPresentation):
        self.pres = pres
        self.acts: dict = {}
        self.sections: dict = {}

    def act_letter(self, name, sign, letters):
        if not letters:
            return letters
        key = (name, sign, letters)
        if key in self.acts:
            return self.acts[key]
        rule = self.pres.rule_map[name]
        tail = letters[1:]
        if sign > 0:
            i = letters[0]
            for nm, sg in reversed(rule.sections[i - 1].letters):
                tail = self.act_letter(nm, sg, tail)
            out = (rule.root_perm[i - 1],) + tail
        else:
            j = rule.root_perm.index(letters[0]) + 1
            for nm, sg in rule.sections[j - 1].letters:
                tail = self.act_letter(nm, -sg, tail)
            out = (j,) + tail
        self.acts[key] = out
        return out

    def section_letter(self, name, sign, letters) -> Word:
        if not letters:
            return Word(((name, sign),))
        key = (name, sign, letters)
        if key in self.sections:
            return self.sections[key]
        rule = self.pres.rule_map[name]
        if sign > 0:
            out = self.walk(rule.sections[letters[0] - 1], letters[1:])[1]
        else:
            # (g^-1)|_v = (g|_{g^-1 v})^-1
            pre = self.act_letter(name, -1, letters)
            out = self.section_letter(name, 1, pre).inverse()
        out = self.pres.reduce(out)
        self.sections[key] = out
        return out

    def walk(self, word: Word, letters):
        """The image of a vertex under a word, and the word's section there."""
        parts = []
        cur = letters
        for name, sign in reversed(word.letters):
            parts.append(self.section_letter(name, sign, cur))
            cur = self.act_letter(name, sign, cur)
        total = tuple(ch for part in reversed(parts) for ch in part.letters)
        return cur, self.pres.reduce(Word(total))

    def walk_chunks(self, word: Word, vertex: Vertex, chunk: int):
        """act(w, u), w|_u and v for the split vertex uv, v at most chunk long."""
        letters = vertex.letters
        head = ()
        while len(letters) > chunk:
            image, word = self.walk(word, letters[:chunk])
            head += image
            letters = letters[chunk:]
        return head, word, letters


def act(pres: WreathPresentation, word: Word, vertex: Vertex,
        chunk: int = CHUNK) -> Vertex:
    rec = _Recursion(pres)
    head, word, letters = rec.walk_chunks(word, vertex, chunk)
    for name, sign in reversed(word.letters):
        letters = rec.act_letter(name, sign, letters)
    return Vertex(head + letters, pres.degree)


def section(pres: WreathPresentation, word: Word, vertex: Vertex,
            chunk: int = CHUNK) -> Word:
    rec = _Recursion(pres)
    _, word, letters = rec.walk_chunks(word, vertex, chunk)
    return rec.walk(word, letters)[1]


def portrait(pres: WreathPresentation, word: Word, depth: int) -> PortraitNode:
    """Each node's root permutation from the level-1 permutation, each child
    from ``section`` at a letter of the reduced word."""
    word = pres.reduce(word)
    root = tuple(int(x) + 1 for x in level_permutation(pres, word, 1))
    if depth == 0:
        return PortraitNode(root, (), word)
    d = pres.degree
    return PortraitNode(root, tuple(
        portrait(pres, section(pres, word, Vertex((i,), d)), depth - 1)
        for i in range(1, d + 1)), None)
