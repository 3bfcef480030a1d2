"""The --json writer and the streaming of large documents.

``cli._json_chunks`` must write what ``json.dumps(doc, indent=2)`` writes,
with each integer array written as its ``tolist()``: on every document the
CLI prints, on leaves planted to tell the two apart, and it must fail where
``json.dumps`` fails."""

import argparse
import json
import sys
import tracemalloc

import numpy as np
import pytest
from families import FINER_THAN_CONES, NON_COMMUTATIVE

from selfsim import cli
from selfsim.catalog import builtin, keys
from selfsim.scheme import build_scheme, scheme_json_doc
from selfsim.tree import Vertex, parse_ray
from selfsim.wreath import parse_presentation


def _written(value) -> str:
    return "".join(cli._json_chunks(value))


def _dumped(value) -> str:
    return json.dumps(value, indent=2, default=np.ndarray.tolist)


PLANTED = {
    "int": 7,
    "str": "v",
    "none": None,
    "float": 0.1,
    "empty list": [],
    "empty dict": {},
    "nested empty": [[], {}, [[]], {"a": {}}, {"a": []}],
    "bools in an int list": [1, True, 0, False],
    "bools alone": [True, False],
    "a float in an int list": [1, 2.0],
    "a string in an int list": [1, "1"],
    "non-ascii and control characters": ["é", "☃", "\x00\t\n\x1f\"\\", "\U0001f600"],
    "non-ascii keys": {"é": 1, "\n": [2], "☃": {"\x7f": " "}},
    "negative and huge ints": [-1, -(2**63), 2**63, 2**64 + 1, 10**40],
    "a tuple": (1, ("a", "b"), ()),
    "keys that are not strings": {1: "a", 2.5: [1], True: None, None: False},
    "a nested document": {"a": [{"b": [1, 2]}, {"c": {"d": ["x", "y"]}}], "e": "f"},
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_the_writer_is_json_dumps_on_planted_leaves(name):
    value = PLANTED[name]
    assert _written(value) == json.dumps(value, indent=2)
    assert _written({"deeper": [value]}) == json.dumps({"deeper": [value]}, indent=2)


@pytest.mark.parametrize("array", [
    np.zeros(0, dtype=np.int64),
    np.arange(1).reshape(1, 1, 1),
    np.arange(-12, 12).reshape(2, 3, 4),
    np.zeros((3, 0), dtype=np.int32),
    np.zeros((0, 3), dtype=np.int64),
    np.array([2**63, 1], dtype=np.uint64),
], ids=["(0,)", "(1,1,1)", "(2,3,4)", "(3,0)", "(0,3)", "uint64"])
def test_the_writer_writes_an_int_array_as_its_list(array):
    for value in (array, {"p": array}, [[array]]):
        assert _written(value) == _dumped(value)
    assert _written(array) == json.dumps(array.tolist(), indent=2)


@pytest.mark.parametrize("value", [
    {(1, 2): 3},
    [1, object()],
    {"a": np.int64(3)},
    np.array(3),
    np.zeros(2),
    np.array([True, False]),
    [float("nan")],  # written, not refused, as json.dumps writes it
], ids=["tuple key", "object", "numpy scalar", "0-d array", "float array", "bool array",
        "nan"])
def test_the_writer_fails_where_json_dumps_fails(value):
    try:
        want = json.dumps(value, indent=2)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{exc}$"):
            _written(value)
    else:
        assert _written(value) == want


def _cli_matrix():
    """Every command, on every catalog group at levels 0-6 (binary) or 0-4
    (ternary), and on two presentations that the cone route declines."""
    yield "catalog", "list"
    for key in keys():
        entry = builtin(key)
        group, d = ("--group", key), entry.degree
        names = entry.presentation.generator_names
        for word in (names[0], " ".join(names), f"{names[-1]}^-1 {names[0]}"):
            for vertex in ("-", "1", str(Vertex((d,) * 3, d)), "2" * 7):
                yield "act", *group, "--word", word, "--vertex", vertex
                yield "section", *group, "--word", word, "--vertex", vertex
            yield "portrait", *group, "--word", word, "--depth", "2"
        for n in range(7 if d == 2 else 5):
            level = ("--level", str(n))
            yield "order", *group, "--word", " ".join(names), *level
            yield "orbits", *group, *level
            yield "scheme", *group, *level
            yield "decompose", *group, *level, "--nesting", "--oracle"
            yield "verify", *group, *level, "--cases", "5"
    for path, ray, levels in (("finer.txt", "3", range(1, 5)),
                              ("non-commutative.txt", "2", range(1, 5))):
        source = ("--file", path, "--ray", ray)
        for n in levels:
            level = ("--level", str(n))
            yield "orbits", *source, *level
            yield "scheme", *source, *level
            yield "decompose", *source, *level, "--nesting"
            yield "verify", *source, *level, "--cases", "5"


def test_the_writer_is_json_dumps_on_every_cli_document(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "finer.txt").write_text(FINER_THAN_CONES)
    (tmp_path / "non-commutative.txt").write_text(NON_COMMUTATIVE)
    docs = []
    emit = cli._emit

    def recorded(args, envelope, payload, human):
        docs.append(envelope | payload)
        emit(args, envelope, payload, human)

    monkeypatch.setattr(cli, "_emit", recorded)
    printed = set()
    for argv in _cli_matrix():
        docs.clear()
        cli.main([*argv, "--json"])
        out = capsys.readouterr().out
        assert len(docs) == (1 if out else 0), argv
        if docs:
            want = _dumped(docs[0])
            assert _written(docs[0]) == want, argv
            assert out == want + "\n", argv
            printed.add(argv[0])
    assert printed == set(cli._COMMANDS)


class _ByteCount:
    """A stdout that keeps nothing but the count of what it is sent."""

    def __init__(self):
        self.count = 0

    def write(self, text):
        self.count += len(text)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


def test_the_rank_123_scheme_document_streams_in_less_than_its_p(monkeypatch):
    # p itself takes 8 r^3 bytes; its tolist() takes more, and so does the
    # whole text of the document, at least 10 bytes for each of its r^3
    # entries.  The writer holds one row of p at a time.
    scheme = build_scheme(parse_presentation(FINER_THAN_CONES), 6, parse_ray("3", 3))
    r = scheme.rank
    assert r == 123
    payload = scheme_json_doc(scheme.valencies, scheme.pairing, scheme.p)
    sink = _ByteCount()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli._emit(argparse.Namespace(json=True), {"level": 6}, payload, "")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.count > 10 * r**3
    assert peak < 8 * r**3
