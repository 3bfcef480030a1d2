import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from families import ADDING_MACHINE, CONE_CASES, FINER_THAN_CONES, NON_COMMUTATIVE

import selfsim
from selfsim import __version__, cache
from selfsim.catalog import builtin
from selfsim.cli import build_parser, main
from selfsim.errors import SizeCapError
from selfsim.scheme import is_commutative
from selfsim.tree import Vertex, parse_ray
from selfsim.wreath import (Word, generator_level_perms, letter_step, level_permutation,
                            load_presentation, parse_presentation, section)

import section_reference as ref

INTRANSITIVE = "degree: 2\ngen a = perm () | e, e\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out) if out else None, err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "grigorchuk" in out and "gupta-sidki" in out


def test_catalog_json_envelope(capsys):
    code, doc, _ = run_json(capsys, "catalog", "list")
    assert code == 0
    assert doc["tool_version"] == __version__
    assert doc["group"] is None and doc["level"] is None
    assert "seed" in doc
    assert {g["key"] for g in doc["groups"]} == {
        "grigorchuk", "grigorchuk-tilde", "gamma", "gamma-bar", "gupta-sidki"}


def test_act(capsys):
    code, out, _ = run(capsys, "act", "--group", "grigorchuk",
                       "--word", "a", "--vertex", "12")
    assert code == 0
    assert out.strip() == "22"


def test_act_json(capsys):
    code, doc, _ = run_json(capsys, "act", "--group", "grigorchuk",
                            "--word", "a", "--vertex", "12")
    assert code == 0
    assert doc["image"] == "22"
    assert doc["group"] == "grigorchuk"


def test_section(capsys):
    code, out, _ = run(capsys, "section", "--group", "grigorchuk",
                       "--word", "b", "--vertex", "2")
    assert code == 0
    assert out.strip() == "c"


def test_order(capsys):
    code, out, _ = run(capsys, "order", "--group", "grigorchuk",
                       "--word", "a", "--level", "3")
    assert code == 0
    assert out.strip() == "2"


def test_order_cap_exceeded(capsys):
    code, _, err = run(capsys, "order", "--group", "grigorchuk",
                       "--word", "a b", "--level", "25")
    assert code == 2
    assert "cap" in err


def test_portrait_dot(capsys):
    code, out, _ = run(capsys, "portrait", "--group", "grigorchuk",
                       "--word", "d", "--depth", "1", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "v2" in out and "v1 " not in out


def test_portrait_json(capsys):
    code, doc, _ = run_json(capsys, "portrait", "--group", "grigorchuk",
                            "--word", "d", "--depth", "1")
    assert code == 0
    tree = doc["portrait"]
    assert tree["perm"] == "()"
    assert [c.get("word") for c in tree["children"]] == ["e", "b"]


def test_portrait_depth_past_the_cap_exits_two(capsys):
    argv = ("portrait", "--group", "grigorchuk", "--word", "d", "--depth", "3")
    code, out, err = run(capsys, *argv, "--cap", "7", "--json")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "SizeCapError", "message":
                               "level 3 of the 2-regular tree has 8 vertices, cap is 7"}
    assert run(capsys, *argv, "--cap", "8")[0] == 0


@pytest.mark.parametrize("command", ["act", "section"])
def test_act_and_section_take_no_cap(capsys, command):
    code, _, err = run(capsys, command, "--group", "grigorchuk",
                       "--word", "b", "--vertex", "2", "--cap", "5")
    assert code == 1
    assert "unrecognized arguments: --cap 5" in err


def test_orbits_json(capsys):
    code, doc, _ = run_json(capsys, "orbits", "--group", "grigorchuk",
                            "--level", "2")
    assert code == 0
    assert doc["level"] == 2
    assert doc["base"] == "22"
    assert doc["blocks"] == [["22"], ["21"], ["11", "12"]]


def test_orbits_human(capsys):
    code, out, _ = run(capsys, "orbits", "--group", "grigorchuk", "--level", "2")
    assert code == 0
    assert "3 suborbits" in out


def test_orbits_custom_ray(capsys):
    code, doc, _ = run_json(capsys, "orbits", "--group", "grigorchuk",
                            "--level", "2", "--ray", "1")
    assert code == 0
    assert doc["base"] == "11"


def test_scheme_json(capsys):
    code, doc, _ = run_json(capsys, "scheme", "--group", "grigorchuk",
                            "--level", "2")
    assert code == 0
    assert doc["rank"] == 3
    assert doc["valencies"] == [1, 1, 2]
    assert doc["commutative"] is True
    assert doc["pairing"] == [0, 1, 2]


def test_scheme_byte_stable(capsys):
    _, first, _ = run(capsys, "scheme", "--group", "gamma", "--level", "2", "--json")
    _, second, _ = run(capsys, "scheme", "--group", "gamma", "--level", "2", "--json")
    assert first == second


def test_scheme_dot(capsys):
    code, out, _ = run(capsys, "scheme", "--group", "grigorchuk",
                       "--level", "1", "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_scheme_dot_refused_before_the_build(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the scheme was built")
    monkeypatch.setattr("selfsim.cli.build_scheme", unreachable)
    code, out, err = run(capsys, "scheme", "--dot", "--group", "grigorchuk",
                         "--level", "13", "--json")
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "SizeCapError",
        "message": "orbital graph export writes N (N - 1) / 2 edge lines, too many "
                   "at 8192 points (the cap is 4096)",
    }


def test_decompose(capsys):
    code, doc, _ = run_json(capsys, "decompose", "--group", "gupta-sidki",
                            "--level", "3")
    assert code == 0
    assert doc["degrees"] == [1, 1, 1, 3, 3, 9, 9]
    assert doc["rank"] == 7
    assert doc["gelfand"] is True
    assert doc["nested_in_next"] is None


def test_decompose_nesting_and_oracle(capsys):
    code, doc, _ = run_json(capsys, "decompose", "--group", "gamma",
                            "--level", "2", "--nesting", "--oracle")
    assert code == 0
    assert doc["nested_in_next"] is True
    assert doc["oracle_degrees"] == doc["degrees"] == [1, 1, 1, 3, 3]


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "--group", "grigorchuk",
                       "--level", "2", "--cases", "20")
    assert code == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_verify_json(capsys):
    code, doc, _ = run_json(capsys, "verify", "--group", "gamma",
                            "--level", "1", "--cases", "10")
    assert code == 0
    assert doc["ok"] is True
    assert len(doc["suites"]) == 6


def test_unknown_group_exits_one(capsys):
    code, _, err = run(capsys, "act", "--group", "mystery",
                       "--word", "a", "--vertex", "1")
    assert code == 1
    assert "unknown group" in err


def test_json_error_is_single_json_line(capsys):
    code, out, err = run(capsys, "act", "--group", "mystery",
                         "--word", "a", "--vertex", "1", "--json")
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "UnknownGroupError"


def test_both_sources_rejected(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text(INTRANSITIVE)
    code, _, err = run(capsys, "act", "--group", "grigorchuk", "--file",
                       str(path), "--word", "a", "--vertex", "1")
    assert code == 1
    assert "not both" in err


def test_missing_source_rejected(capsys):
    code, _, err = run(capsys, "act", "--word", "a", "--vertex", "1")
    assert code == 1


def test_missing_required_flag_usage_error(capsys):
    code, _, err = run(capsys, "orbits", "--group", "grigorchuk")
    assert code == 1
    assert "--level" in err


def test_bad_vertex_exits_one(capsys):
    code, _, err = run(capsys, "act", "--group", "grigorchuk",
                       "--word", "a", "--vertex", "13")
    assert code == 1


def test_file_presentation(capsys, tmp_path):
    path = tmp_path / "swap.txt"
    path.write_text("degree: 2\ngen a = perm (1 2) | e, e\n")
    code, doc, _ = run_json(capsys, "orbits", "--file", str(path), "--level", "1")
    assert code == 0
    assert doc["group"] == str(path)
    assert doc["blocks"] == [["2"], ["1"]]


def test_intransitive_exits_two(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text(INTRANSITIVE)
    code, _, err = run(capsys, "orbits", "--file", str(path), "--level", "1")
    assert code == 2
    assert "not transitive" in err


@pytest.mark.parametrize("command", ["orbits", "scheme", "decompose"])
def test_intransitive_root_group_keeps_its_message(capsys, tmp_path, command):
    # The cone route declines an input whose root permutations are not
    # transitive; the refusal is the fold's, word for word.
    path = tmp_path / "p.txt"
    path.write_text(INTRANSITIVE)
    code, out, err = run(capsys, command, "--file", str(path), "--level", "1", "--json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "NotTransitiveError", "message":
                               "action on level 1 is not transitive: orbit of 2 has 1 of 2 vertices"}


REFUSAL = '{"error": "IntegrityError", "message": "matrices 1 and 3 do not commute"}\n'


@pytest.mark.parametrize("argv,err", [
    (["decompose", "--level", "3"], "error: matrices 1 and 3 do not commute\n"),
    (["decompose", "--level", "3", "--json"], REFUSAL),
    (["decompose", "--level", "2", "--nesting", "--json"], REFUSAL),  # level 3's p
])
def test_non_gelfand_decompose_exits_two(capsys, tmp_path, argv, err):
    path = tmp_path / "p.txt"
    path.write_text(NON_COMMUTATIVE)
    code, out, got = run(capsys, *argv, "--file", str(path), "--ray", "2")
    assert (code, out, got) == (2, "", err)


def test_non_gelfand_scheme_and_verify_exit_zero(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text(NON_COMMUTATIVE)
    source = ("--file", str(path), "--ray", "2", "--level", "3")
    code, doc, _ = run_json(capsys, "scheme", *source)
    assert code == 0 and doc["commutative"] is False
    code, out, _ = run(capsys, "verify", *source, "--cases", "5")
    assert code == 0
    assert out.splitlines()[-1] == ("PASS degree_certificate: 0 cases "
                                    "(skipped: scheme is not commutative)")


def test_parse_error_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("degree: 2\ngen a = perm (1 2) | e\n")
    code, _, err = run(capsys, "act", "--file", str(path),
                       "--word", "a", "--vertex", "1")
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize("text,level,needle", [
    ("degree: 3\ninvolutions: a\ngen a = perm (1 2 3) | e, e, e\n", 1, "line 3"),
    ("degree: 3\ninvolutions: a\ngen a = perm (1 2) | b, e, e\n"
     "gen b = perm (1 2 3) | e, e, e\n", 2, "level 2"),
])
def test_false_involution_exits_one(capsys, tmp_path, text, level, needle):
    path = tmp_path / "p.txt"
    path.write_text(text)
    code, _, err = run(capsys, "order", "--file", str(path), "--word", "a",
                       "--level", str(level))
    assert code == 1
    assert "involution" in err and needle in err


@pytest.mark.parametrize("command", ["orbits", "scheme", "decompose"])
def test_a_false_involution_is_named_before_the_table_is_refused(capsys, tmp_path,
                                                                 monkeypatch, command):
    # The cone route declines this input, so the fold plans its N x N table;
    # with physical memory below that table (81^2 bytes at level 4), the
    # false involution is still what the run names.
    monkeypatch.setattr("selfsim.orbits._physical_memory", lambda: 1 << 10)
    path = tmp_path / "p.txt"
    path.write_text("degree: 3\ninvolutions: a\ngen a = perm (1 2) | b, e, e\n"
                    "gen b = perm (1 2 3) | e, e, e\n")
    code, out, err = run(capsys, command, "--file", str(path), "--level", "4", "--json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "PresentationError",
        "message": "declared involution 'a' does not square to the identity on level 2"}


def test_level_past_physical_memory_exits_two(capsys, tmp_path):
    # 2^20 points pass the default --cap; the cone route declines this input,
    # and the N x N uint32 table of the fold would need 4 TiB
    path = tmp_path / "p.txt"
    path.write_text(NON_COMMUTATIVE)
    code, out, err = run(capsys, "orbits", "--file", str(path), "--ray", "2",
                         "--level", "20", "--json")
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "SizeCapError"
    assert f"{4 << 40} bytes" in doc["message"]


def test_level_past_the_table_finishes_on_the_cone_route(capsys):
    # gupta-sidki 10 (N = 59049) was refused while every level built its
    # 6.97 GB table; its suborbits are cones, so no table is made.
    code, doc, err = run_json(capsys, "decompose", "--group", "gupta-sidki", "--level", "10")
    assert (code, err) == (0, "")
    assert doc["rank"] == 21
    assert doc["degrees"] == builtin("gupta-sidki").expected_degrees(10)


def test_cone_route_keeps_a_raised_cap(capsys, monkeypatch):
    # A level past the default cap, asked for with --cap raised, is built
    # under that cap all through the cone route.  The default is shrunk to
    # 2^6 so that level 7 stands for grigorchuk 21 past the real one, and
    # physical memory to 16 KiB, less than twice the fold's 16 KiB table, so
    # the fold cannot finish the job.
    monkeypatch.setattr(generator_level_perms, "__defaults__", (1 << 6,))
    monkeypatch.setattr("selfsim.orbits._physical_memory", lambda: 1 << 14)
    code, doc, err = run_json(capsys, "decompose", "--group", "grigorchuk",
                              "--level", "7", "--cap", "128")
    assert (code, err) == (0, "")
    assert doc["degrees"] == builtin("grigorchuk").expected_degrees(7)


def test_verify_keeps_a_raised_cap(capsys, monkeypatch):
    # As above, and no verify suite composes a level permutation under the
    # default cap: the label invariance suite moves each case's two points
    # by act, and needs no cap at all.  Physical memory is 28 KiB: less than
    # twice the fold's 16 KiB table, more than twice the 12.5 KiB (25 r^3
    # bytes) that the degree certificate's product-rule check plans at rank 8.
    monkeypatch.setattr(generator_level_perms, "__defaults__", (1 << 6,))
    monkeypatch.setattr(level_permutation, "__defaults__", (1 << 6,))
    monkeypatch.setattr("selfsim.orbits._physical_memory", lambda: 28 << 10)
    code, doc, err = run_json(capsys, "verify", "--group", "grigorchuk",
                              "--level", "7", "--cap", "128", "--cases", "5")
    assert (code, err) == (0, "")
    assert doc["ok"] is True
    assert [suite["cases"] for suite in doc["suites"]] == [5] * 6


def test_decompose_loads_no_lazy_numpy_module():
    # numpy.ma is imported on first use by some numpy functions (np.unique in
    # numpy 2); in a cold process that import costs more than the whole job.
    src = Path(selfsim.__file__).resolve().parents[1]
    probe = ("import sys, selfsim.cli\n"
             "selfsim.cli.main(['decompose', '--group', 'gupta-sidki', '--level', '5', '--json'])\n"
             "print('numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("command", ["orbits", "scheme", "decompose", "verify"])
def test_huge_level_exits_two(capsys, command):
    code, out, err = run(capsys, command, "--group", "gamma",
                         "--level", str(10**9), "--json")
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "SizeCapError",
        "message": "level 1000000000 of the 3-regular tree has 3^1000000000 "
                   "vertices, cap is 1048576",
    }


@pytest.mark.parametrize("command,key,value", [
    ("act", "image", "2" * 10**4),
    ("section", "section", "c"),
], ids=["act", "section"])
def test_long_vertex_exits_zero(capsys, command, key, value):
    # b, c and d follow the all-2 path and take turns there: b|_(2^n) is
    # c for n = 1 mod 3.
    code, doc, err = run_json(capsys, command, "--group", "grigorchuk",
                              "--word", "b", "--vertex", "2" * 10**4)
    assert code == 0
    assert err == ""
    assert doc[key] == value


# Each section word doubles below letter 1: section(a, 1^k) has 2^k letters.
DOUBLING = "degree: 2\ngen a = perm (1 2) | a b, b a\ngen b = perm () | b a, a b\n"


@pytest.mark.parametrize("command", ["act", "section"])
def test_a_section_past_the_cap_exits_two(capsys, tmp_path, command):
    # Refused once the section below letter 21 would have 2^21 letters,
    # before they are spelled; unbounded, the walk would run out of memory.
    # act walks the same sections to find the image.
    path = tmp_path / "doubling.txt"
    path.write_text(DOUBLING)
    start = time.process_time()
    code, out, err = run(capsys, command, "--file", str(path), "--word", "a",
                         "--vertex", "1" * 40, "--json")
    assert time.process_time() - start < 1.0  # 0.6 s on a 2-vCPU VM
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "SizeCapError",
        "message": "the section below letter 21 of the vertex has 2097152 letters before "
                   "reduction, more than the cap of 1048576"}


def test_act_on_a_non_contracting_presentation_ends(capsys, tmp_path):
    # On NON_COMMUTATIVE the sections of b^-1 c^-1 along this vertex stay a
    # few letters long once reduced, but spelled letter by letter without
    # reduction they grow about threefold every 10 letters.
    path = tmp_path / "non-commutative.txt"
    path.write_text(NON_COMMUTATIVE)
    vertex = ("211" * 47)[:140]
    start = time.process_time()
    code, doc, _ = run_json(capsys, "act", "--file", str(path), "--word", "b^-1 c^-1",
                            "--vertex", vertex)
    assert time.process_time() - start < 1.0
    assert code == 0
    assert doc["image"] == "".join(map(str, ref.act(
        parse_presentation(NON_COMMUTATIVE), Word.parse("b^-1 c^-1"),
        Vertex.parse(vertex, 2), chunk=1).letters))


# The same group, its rules spelling a b as a b b^-1 b: the same sections
# once reduced, but more letters before reduction.
UNREDUCED = DOUBLING.replace("a b", "a b b^-1 b")


@pytest.mark.parametrize("text, letter, size", [(DOUBLING, 7, 128), (UNREDUCED, 6, 94)],
                         ids=["doubling", "unreduced"])
def test_section_bound_is_the_level_cap(monkeypatch, text, letter, size):
    # The cap counts a section's letters as letter_step spells them, before
    # reduction: counted reduced, UNREDUCED's 94 would be 64 and pass.
    pres = parse_presentation(text)
    monkeypatch.setattr("selfsim.wreath.DEFAULT_LEVEL_CAP", 64)
    a = Word.generator("a")
    above = section(pres, a, Vertex((1,) * (letter - 1), 2))
    assert len(above) == 2 ** (letter - 1)
    assert len(letter_step(pres, above.letters, 1)[1]) == size
    with pytest.raises(SizeCapError, match=f"^the section below letter {letter} of the "
                                           f"vertex has {size} letters before reduction, "
                                           "more than the cap of 64$"):
        section(pres, a, Vertex((1,) * letter, 2))


@pytest.mark.parametrize("argv", [
    ("portrait", "--word", "d", "--depth", "2000", "--cap", str(1 << 2000)),
], ids=["portrait"])
def test_recursion_depth_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv, "--group", "grigorchuk", "--json")
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "RecursionError"


def test_cli_imports_without_scipy():
    src = Path(selfsim.__file__).resolve().parents[1]
    probe = "import sys, selfsim.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout == "False\n"


def test_importing_the_cli_builds_no_parser():
    src = Path(selfsim.__file__).resolve().parents[1]
    probe = "import selfsim.cli; print(selfsim.cli.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout == "0\n"


def test_one_parser_per_process():
    assert build_parser("decompose") is build_parser("decompose")
    assert build_parser() is build_parser()


def test_a_call_builds_only_its_own_parser(capsys):
    build_parser.cache_clear()
    assert run(capsys, "decompose", "--group", "gamma", "--level", "2")[0] == 0
    assert build_parser.cache_info().currsize == 1
    assert run(capsys, "decompose", "--group", "gamma", "--level", "3")[0] == 0
    assert build_parser.cache_info().currsize == 1


COMMANDS = ("catalog", "act", "section", "order", "portrait", "orbits", "scheme",
            "decompose", "verify")


def _subparsers():
    """The top-level parser's own subparsers, by command."""
    actions = build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


def test_the_top_level_parser_lists_every_command():
    assert tuple(_subparsers()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_parser_formats_as_the_top_level_subparser(command):
    alone, sub = build_parser(command), _subparsers()[command]
    assert alone is not sub
    assert alone.format_help() == sub.format_help()
    assert alone.format_usage() == sub.format_usage()


def _main(capsys, argv):
    """main's exit code, from its return or from --help or --version, with its output."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# argv, exit code, and a text that must be on stdout (exit 0) or stderr (otherwise)
PARSE_MATRIX = [
    ((), 1, "usage error: the following arguments are required: command\n"),
    (("-h",), 0, "usage: selfsim [-h] [--version]"),
    (("--version",), 0, f"{__version__}\n"),
    (("bogus",), 1, "usage error: argument command: invalid choice: 'bogus'"),
    (("decompose", "-h"), 0, "usage: selfsim decompose [-h]"),
    (("--json", "decompose", "--group", "grigorchuk", "--level", "3"), 1,
     "usage error: unrecognized arguments: --json\n"),
    (("decompose", "--gr", "grigorchuk", "--level", "3"), 0,
     "level 3: rank 4, gelfand: True\ndegrees: [1, 1, 2, 4]\n"),
    (("decompose", "--group", "grigorchuk", "--level", "x"), 1,
     "usage error: argument --level: invalid int value: 'x'\n"),
    (("decompose", "--group", "grigorchuk"), 1,
     "usage error: the following arguments are required: --level\n"),
    (("decompose", "--", "--group"), 1, "usage error: "),
    (("orbits", "--group", "grigorchuk", "--level", "2", "extra"), 1,
     "usage error: unrecognized arguments: extra\n"),
]


@pytest.mark.parametrize("argv, code, text", PARSE_MATRIX,
                         ids=[" ".join(argv) or "no-args" for argv, _, _ in PARSE_MATRIX])
def test_main_prints_what_the_top_level_parser_prints(capsys, monkeypatch, argv, code, text):
    routed = _main(capsys, argv)
    out, err = routed[1:]
    shown, silent = (out, err) if code == 0 else (err, out)
    assert routed[0] == code and text in shown and silent == ""
    # The same argv through the top-level parser alone: built with every
    # command first, then the table made to claim no name, so main routes
    # nothing to a command's own parser but still finds each handler.
    build_parser()
    monkeypatch.setattr("selfsim.cli._COMMANDS", _Unrouted(selfsim.cli._COMMANDS))
    assert _main(capsys, argv) == routed


class _Unrouted(dict):
    """A command table whose membership test finds no command."""

    def __contains__(self, name):
        return False


def test_the_shared_parser_keeps_nothing_between_calls(capsys):
    # A usage error, then --nesting, then a plain run, in one process: the
    # last prints what a freshly built parser prints.
    code, out, err = run(capsys, "orbits", "--group", "grigorchuk")
    assert (code, out) == (1, "") and "--level" in err
    code, doc, _ = run_json(capsys, "decompose", "--group", "gamma", "--level", "2",
                            "--nesting")
    assert (code, doc["nested_in_next"]) == (0, True)
    argv = ("decompose", "--group", "gamma", "--level", "2", "--json")
    shared = run(capsys, *argv)
    assert shared[0] == 0 and '"nested_in_next": null' in shared[1]
    build_parser.cache_clear()
    assert run(capsys, *argv) == shared


def test_version_exits_zero(capsys):
    for _ in range(2):  # the first call may build the parser, the second reuses it
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (f"{__version__}\n", "")
    src = Path(selfsim.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "selfsim.cli", "--version"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{__version__}\n", "")


def test_memory_error_exits_two(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr("selfsim.cli.stabilizer_suborbits", exhausted)
    code, out, err = run(capsys, "orbits", "--group", "grigorchuk",
                         "--level", "2", "--json")
    assert code == 2
    assert json.loads(err) == {"error": "MemoryError", "message": "out of memory"}


def test_cache_round_trip(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    args = ("scheme", "--group", "grigorchuk", "--level", "3", "--json",
            "--cache-dir", cache_dir)
    code, first, _ = run(capsys, *args)
    assert code == 0
    files = list((tmp_path / "cache").glob("*.json"))
    assert len(files) == 1
    code, second, _ = run(capsys, *args)
    assert code == 0
    assert first == second


def test_cache_rejects_corrupt_payload(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    args = ("scheme", "--group", "grigorchuk", "--level", "2", "--json",
            "--cache-dir", str(cache_dir))
    _, first, _ = run(capsys, *args)
    path = next(cache_dir.glob("*.json"))
    doc = json.loads(path.read_text())
    doc["p"][1][2][1] += 1
    path.write_text(json.dumps(doc))
    code, second, _ = run(capsys, *args)
    assert code == 0
    assert second == first  # invalid entry ignored, recomputed and rewritten
    assert json.loads(path.read_text())["p"][1][2][1] == json.loads(first)["p"][1][2][1]


@pytest.mark.parametrize("argv", [
    ("scheme", "--group", "grigorchuk", "--level", "2"),
    ("decompose", "--group", "grigorchuk", "--level", "2", "--nesting"),
], ids=lambda argv: argv[0])
def test_no_environment_variable_names_a_cache(capsys, tmp_path, monkeypatch, argv):
    # --cache-dir is the one way to name a cache; SELFSIM_CACHE_DIR is not read
    plain = run_json(capsys, *argv)
    monkeypatch.setenv("SELFSIM_CACHE_DIR", str(tmp_path / "envcache"))
    assert run_json(capsys, *argv) == plain
    assert plain[0] == 0 and plain[2] == ""
    assert not (tmp_path / "envcache").exists()


@pytest.mark.parametrize("flags", [(), ("--nesting",), ("--oracle",)],
                         ids=["plain", "nesting", "oracle"])
def test_uncached_decompose_makes_no_scheme_document(capsys, monkeypatch, flags):
    # decompose reads p as an array; the JSON document is only printed or stored
    def no_document(*args):
        raise AssertionError("decompose made a scheme document")

    monkeypatch.setattr("selfsim.cli.scheme_json_doc", no_document)
    code, doc, err = run_json(capsys, "decompose", "--group", "gupta-sidki",
                              "--level", "3", *flags)
    assert (code, err) == (0, "")
    assert doc["degrees"] == builtin("gupta-sidki").expected_degrees(3)


def _unreachable(*args, **kwargs):
    raise AssertionError("a certified level built p or solved the degree pencil")


@pytest.mark.parametrize("argv", [
    ("--group", "grigorchuk", "--level", "20"),
    ("--group", "gupta-sidki", "--level", "12"),
], ids=["grigorchuk-20", "gupta-sidki-12"])
def test_certified_decompose_runs_no_eigen_solve(capsys, monkeypatch, argv):
    monkeypatch.setattr("selfsim.cli.spectral_data", _unreachable)
    code, doc, err = run_json(capsys, "decompose", *argv)
    assert (code, err) == (0, "")
    assert doc["degrees"] == builtin(argv[1]).expected_degrees(int(argv[3]))


@pytest.mark.parametrize("argv", [
    ("--group", "grigorchuk", "--level", "21", "--cap", "2097152"),
    ("--group", "gupta-sidki", "--level", "13", "--cap", "2000000"),
], ids=["grigorchuk-21", "gupta-sidki-13"])
def test_certified_decompose_past_the_float_tolerance(capsys, argv):
    # The float route missed an integer here by more than its tolerance
    # (grigorchuk 21: 524288.0000024298); the closed form is exact.
    code, doc, err = run_json(capsys, "decompose", *argv)
    assert (code, err) == (0, "")
    assert (doc["rank"], doc["gelfand"]) == (len(doc["degrees"]), True)
    assert doc["degrees"] == builtin(argv[1]).expected_degrees(int(argv[3]))


def test_certified_nesting_and_oracle_build_no_p_for_the_degrees(capsys, monkeypatch,
                                                                tmp_path):
    # --nesting runs level n+1's certificate only; --oracle builds level n's
    # scheme for the dense check alone, and no cache is touched.
    for name in ("selfsim.cli.spectral_data", "selfsim.cli._scheme_data",
                 "selfsim.cache.load", "selfsim.cache.store"):
        monkeypatch.setattr(name, _unreachable)
    built = []
    honest = selfsim.cli.build_scheme
    monkeypatch.setattr("selfsim.cli.build_scheme",
                        lambda pres, n, *rest: built.append(n) or honest(pres, n, *rest))
    cache_dir = tmp_path / "cache"
    for flags in (("--nesting",), ("--nesting", "--oracle")):
        code, doc, err = run_json(capsys, "decompose", "--group", "gupta-sidki", "--level",
                                  "3", *flags, "--cache-dir", str(cache_dir))
        assert (code, err) == (0, "")
        assert doc["degrees"] == builtin("gupta-sidki").expected_degrees(3)
        assert doc["nested_in_next"] is True
        assert doc.get("oracle_degrees", doc["degrees"]) == doc["degrees"]
    assert built == [3]
    assert not cache_dir.exists()


@pytest.mark.parametrize("flags", [(), ("--nesting",), ("--nesting", "--oracle"), ("--json",),
                                   ("--nesting", "--json"), ("--nesting", "--oracle", "--json")])
def test_certified_level_without_a_closed_form_takes_the_float_route(capsys, monkeypatch,
                                                                     flags):
    # A non-commutative G_1 scheme has no closed form (from degree 6 on, so
    # it is simulated here): decompose reads the degrees off p, by the
    # certified pencil, and prints what the closed form prints.
    argv = ("decompose", "--group", "grigorchuk-tilde", "--level", "4", *flags)
    closed = run(capsys, *argv)
    monkeypatch.setattr("selfsim.verify.wreath_power_degrees", lambda orbital, n: None)
    solves = []
    honest = selfsim.cli.spectral_data
    monkeypatch.setattr("selfsim.cli.spectral_data",
                        lambda *a: solves.append(1) or honest(*a))
    assert run(capsys, *argv) == closed
    assert len(solves) == (2 if "--nesting" in flags else 1)


def test_a_p_with_one_entry_changed_prints_no_degree(capsys, monkeypatch, tmp_path):
    # Every entry of the declined level's p moved by +1 and by -1: the
    # product rule or the certificate refuses each with exit 2 before
    # anything reaches stdout, for level n and for --nesting's level n+1.
    path = tmp_path / "finer.txt"
    path.write_text(FINER_THAN_CONES)
    source = ("--file", str(path), "--ray", "3", "--level", "2")
    honest = selfsim.cli._scheme_data
    valencies, pairing, p = honest(build_parser().parse_args(["decompose", *source]),
                                   parse_presentation(FINER_THAN_CONES), 2,
                                   parse_ray("3", 3), None)
    kinds = set()
    for entry in np.ndindex(p.shape):
        for delta in (1, -1):
            bad = p.copy()
            bad[entry] += delta
            for flags, level in (((), 2), (("--nesting",), 3)):
                monkeypatch.setattr(
                    "selfsim.cli._scheme_data",
                    lambda args, pres, n, *rest: (valencies, pairing, bad) if n == level
                    else honest(args, pres, n, *rest))
                code, out, err = run(capsys, "decompose", *source[:-1], "2", *flags, "--json")
                assert (code, out) == (2, ""), (entry, delta, flags)
                kinds.add(json.loads(err)["error"])
    assert kinds == {"IntegrityError", "NumericalError"}


@pytest.mark.parametrize("flags", [(), ("--nesting",)])
def test_a_float_proposal_off_by_one_exits_two(capsys, monkeypatch, tmp_path, flags):
    # The last float solve, level n's or --nesting's level n+1, proposes
    # one degree one unit too large: NumericalError, exit 2, no degree.
    path = tmp_path / "finer.txt"
    path.write_text(FINER_THAN_CONES)
    eigvals, solves = np.linalg.eigvals, []

    def off_by_one(M):
        values = eigvals(M)
        solves.append(len(M))
        if len(solves) == 1 + len(flags):
            values[0] += 1
        return values

    monkeypatch.setattr(np.linalg, "eigvals", off_by_one)
    code, out, err = run(capsys, "decompose", "--file", str(path), "--ray", "3",
                         "--level", "3", *flags, "--json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "NumericalError",
                               "message": "degree pencil: the rounded eigenvalues of "
                                          "T1^-1 T2 fail their exact certificate"}
    assert len(solves) == 1 + len(flags)


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_verify_needs_a_case(capsys, cases):
    code, out, err = run(capsys, "verify", "--group", "grigorchuk",
                         "--level", "2", "--cases", cases)
    assert code == 1
    assert out == ""
    assert "--cases must be at least 1" in err


@pytest.mark.parametrize("flags", [(), ("--oracle",), ("--nesting",)])
def test_decompose_refuses_a_negative_seed_before_the_build(capsys, monkeypatch, flags):
    def unreachable(*args, **kwargs):
        raise AssertionError("the scheme was built")
    monkeypatch.setattr("selfsim.cli.build_scheme", unreachable)
    monkeypatch.setattr("selfsim.cli._scheme_data", unreachable)
    code, out, err = run(capsys, "decompose", "--group", "grigorchuk",
                         "--level", "3", "--seed", "-1", *flags)
    assert code == 1
    assert out == ""
    assert "--seed must be at least 0, got -1" in err


CAPPED = {
    "order": ("order", "--group", "grigorchuk", "--word", "a b", "--level", "3"),
    "portrait": ("portrait", "--group", "grigorchuk", "--word", "d", "--depth", "2"),
    "orbits": ("orbits", "--group", "grigorchuk", "--level", "3"),
    "scheme": ("scheme", "--group", "grigorchuk", "--level", "3"),
    "decompose": ("decompose", "--group", "grigorchuk", "--level", "3"),
    "verify": ("verify", "--group", "grigorchuk", "--level", "3"),
}


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("command", CAPPED)
def test_a_cap_below_one_is_a_usage_error(capsys, monkeypatch, command, cap):
    # No level fits under such a cap: the flag is refused before the input
    # is even read, where the size check blamed the computation (exit 2).
    def unreachable(*args, **kwargs):
        raise AssertionError("the input was read")
    monkeypatch.setattr("selfsim.cli._resolve", unreachable)
    code, out, err = run(capsys, *CAPPED[command], "--cap", cap, "--json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "usage", "message": f"--cap must be at least 1, got {cap}"}
    code, out, err = run(capsys, *CAPPED[command], "--cap", cap)
    assert (code, out, err) == (1, "", f"error: --cap must be at least 1, got {cap}\n")


SEEDLESS = {
    "catalog": ("catalog", "list"),
    "act": ("act", "--group", "grigorchuk", "--word", "a", "--vertex", "12"),
    "section": ("section", "--group", "grigorchuk", "--word", "a", "--vertex", "12"),
    "order": ("order", "--group", "grigorchuk", "--word", "a b", "--level", "3"),
    "portrait": ("portrait", "--group", "grigorchuk", "--word", "a", "--depth", "2"),
}


@pytest.mark.parametrize("command", SEEDLESS)
def test_a_command_that_draws_nothing_takes_no_seed(capsys, command):
    code, doc, _ = run_json(capsys, *SEEDLESS[command])
    assert code == 0 and doc["seed"] is None
    code, out, err = run(capsys, *SEEDLESS[command], "--seed", "3")
    assert code == 1 and out == ""
    assert err == "usage error: unrecognized arguments: --seed 3\n"


def test_verify_refuses_a_negative_seed_before_the_build(capsys, monkeypatch):
    # The same check as decompose's, in JSON too, where numpy's own message
    # named neither the flag nor the value.
    def unreachable(*args, **kwargs):
        raise AssertionError("the scheme was built")
    monkeypatch.setattr("selfsim.verify.build_scheme", unreachable)
    code, out, err = run(capsys, "verify", "--group", "grigorchuk",
                         "--level", "3", "--seed", "-1", "--json")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "usage",
                               "message": "--seed must be at least 0, got -1"}


@pytest.mark.parametrize("command", [
    ("scheme", "--group", "grigorchuk", "--level", "3"),
    ("decompose", "--group", "gamma", "--level", "2"),
])
def test_unwritable_cache_dir_never_fails(capsys, tmp_path, command):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("x")
    code, doc, err = run_json(capsys, *command, "--cache-dir", str(blocker))
    code_plain, plain, _ = run_json(capsys, *command)
    assert code == code_plain == 0 and err == ""
    assert doc == plain
    assert blocker.read_text() == "x"


def test_cache_store_uses_its_own_temp_file(tmp_path):
    other_writer = tmp_path / "k.tmp"
    other_writer.write_text("half-written by another process")
    cache.store(tmp_path, "k", {"a": 1})
    cache.store(tmp_path, "k", {"a": 2})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.json", "k.tmp"]
    assert other_writer.read_text() == "half-written by another process"
    assert cache.load(tmp_path, "k") == {"a": 2}


def test_cache_entries_are_one_line_of_json(tmp_path):
    cache.store(tmp_path, "k", {"a": [1, 2], "b": {"c": 3}})
    assert (tmp_path / "k.json").read_text() == '{"a": [1, 2], "b": {"c": 3}}'


def test_decompose_oracle_skips_the_cache(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    code, doc, _ = run_json(capsys, "decompose", "--group", "gamma", "--level", "2",
                            "--oracle", "--cache-dir", str(cache_dir))
    assert code == 0 and doc["oracle_degrees"] == doc["degrees"]
    assert not cache_dir.exists() or not any(cache_dir.iterdir())


def test_scheme_dot_skips_the_cache(capsys, tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    argv = ("scheme", "--group", "gamma", "--level", "2", "--dot")
    code, out, err = run(capsys, *argv, "--cache-dir", str(cache_dir))
    assert code == 1
    assert out == ""
    assert err == "error: --dot neither reads nor writes the cache; drop --cache-dir\n"
    assert not cache_dir.exists()
    monkeypatch.setenv("SELFSIM_CACHE_DIR", str(cache_dir))  # ambient: ignored
    code, out, err = run(capsys, *argv)
    assert code == 0 and out.startswith("digraph") and err == ""
    assert not cache_dir.exists()


@pytest.mark.parametrize("argv", [
    ("act", "--word", "a", "--vertex", "12"),
    ("section", "--word", "b", "--vertex", "2"),
    ("order", "--word", "a b", "--level", "3"),
    ("portrait", "--word", "d", "--depth", "1"),
    ("orbits", "--level", "2"),
    ("verify", "--level", "2", "--cases", "5"),
], ids=lambda argv: argv[0])
def test_cache_dir_only_on_cached_commands(capsys, tmp_path, argv):
    cache_dir = tmp_path / "cache"
    code, out, err = run(capsys, *argv, "--group", "grigorchuk",
                         "--cache-dir", str(cache_dir))
    assert code == 1
    assert out == ""
    assert err == f"usage error: unrecognized arguments: --cache-dir {cache_dir}\n"
    assert not cache_dir.exists()


# decompose uses the cache only where it builds p, on an input the cone route
# declines: FINER_THAN_CONES, written to finer.txt in the test's working
# directory, at levels 2 and 3 (ranks 3 and 6).
FINER = ("--file", "finer.txt", "--ray", "3")
CACHED_RUNS = {
    "scheme": ("scheme", "--group", "grigorchuk", "--level", "3"),
    "decompose": ("decompose", *FINER, "--level", "2"),
    "decompose-nesting": ("decompose", *FINER, "--level", "2", "--nesting"),
}
FINER_SCHEMES = (("scheme", *FINER, "--level", "2"),
                 ("scheme", *FINER, "--level", "3"))


@pytest.fixture
def finer_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "finer.txt").write_text(FINER_THAN_CONES)


def _no_recompute(*args, **kwargs):
    raise AssertionError("a valid entry was recomputed")


@pytest.mark.parametrize("warmup,command", [
    ((CACHED_RUNS["scheme"],), CACHED_RUNS["scheme"]),
    ((CACHED_RUNS["decompose"],), CACHED_RUNS["decompose"]),
    ((CACHED_RUNS["decompose-nesting"],), CACHED_RUNS["decompose-nesting"]),
    (FINER_SCHEMES, CACHED_RUNS["decompose-nesting"]),
    ((CACHED_RUNS["decompose-nesting"],), FINER_SCHEMES[1]),
], ids=["scheme", "decompose", "decompose-nesting", "decompose-nesting-after-scheme",
        "scheme-after-decompose-nesting"])
def test_valid_cache_entry_is_served(capsys, tmp_path, monkeypatch, finer_file, warmup,
                                     command):
    # scheme and decompose share one entry per level: whichever ran first,
    # the other is served without building a scheme
    uncached = [run(capsys, *command, *mode) for mode in ((), ("--json",))]
    cache_dir = str(tmp_path / "cache")
    for argv in warmup:
        assert run(capsys, *argv, "--cache-dir", cache_dir)[0] == 0
    monkeypatch.setattr("selfsim.cli.build_scheme", _no_recompute)
    for mode, expected in zip(((), ("--json",)), uncached):
        assert run(capsys, *command, *mode, "--cache-dir", cache_dir) == expected


def test_warm_nesting_keeps_the_cap(capsys, tmp_path):
    argv = ("decompose", "--group", "grigorchuk", "--level", "3", "--nesting", "--json",
            "--cache-dir", str(tmp_path / "cache"))
    refused = (2, "", json.dumps({"error": "SizeCapError", "message":
                                  "level 4 of the 2-regular tree has 16 vertices, "
                                  "cap is 8"}) + "\n")
    assert run(capsys, *argv, "--cap", "8") == refused  # cold
    assert run(capsys, *argv)[0] == 0  # the cone route stores nothing
    assert run(capsys, *argv, "--cap", "8") == refused  # warm


def test_warm_nesting_keeps_the_cap_where_p_is_built(capsys, tmp_path, finer_file):
    argv = (*CACHED_RUNS["decompose-nesting"], "--json", "--cache-dir", str(tmp_path / "cache"))
    refused = (2, "", json.dumps({"error": "SizeCapError", "message":
                                  "level 3 of the 3-regular tree has 27 vertices, "
                                  "cap is 9"}) + "\n")
    assert run(capsys, *argv, "--cap", "9") == refused  # cold
    assert run(capsys, *argv)[0] == 0  # stores levels 2 and 3
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2
    assert run(capsys, *argv, "--cap", "9") == refused  # warm


def _bump_p(doc):
    # p[1][1][1] keeps p symmetric, so only the axioms can catch it
    p = json.loads(json.dumps(doc["p"]))
    p[1][1][1] += 1
    return doc | {"p": p}


def _merge(tamper):
    return lambda doc: doc | tamper


def _move_p(*moves):
    """Add delta to p at each (entry, delta), keeping the entry's
    ``commutative`` field true to the new p, so only the checks of p itself
    can catch it."""
    def tamper(doc):
        p = np.array(doc["p"])
        for entry, delta in moves:
            p[entry] += delta
        return doc | {"commutative": is_commutative(p), "p": p.tolist()}
    return tamper


# grigorchuk level 3: p[2][1][0] to -2, every row and weighted sum kept
_NEGATIVE_P = _move_p(((2, 1, 0), -2), ((2, 2, 0), 2), ((2, 1, 1), 2), ((2, 2, 1), -2))
# FINER_THAN_CONES level 3: p stays >= 0 and passes every axiom, but fails
# the product rule at (1, 1)
_NOT_ASSOCIATIVE = _move_p(((1, 1, 2), -1), ((1, 2, 2), 1), ((1, 1, 1), 1), ((1, 2, 1), -1))


def _entry_path(cache_dir, command, level):
    if "--group" in command:
        entry = builtin(command[command.index("--group") + 1])
        pres, ray = entry.presentation, entry.default_ray
    else:
        pres = load_presentation(command[command.index("--file") + 1])
        ray = parse_ray(command[command.index("--ray") + 1], pres.degree)
    return cache_dir / f"{cache.cache_key(pres, level, ray)}.json"


@pytest.mark.parametrize("command,offset,tamper", [
    (CACHED_RUNS["decompose"], 0, _bump_p),
    (CACHED_RUNS["decompose"], 0, _merge({"commutative": 1})),
    (CACHED_RUNS["decompose"], 0, _merge({"rank": 3.0})),
    (CACHED_RUNS["decompose-nesting"], 1, _bump_p),
    (CACHED_RUNS["decompose-nesting"], 1, _merge({"commutative": 1})),
    (CACHED_RUNS["decompose-nesting"], 1, _merge({"rank": 6.0})),
    (CACHED_RUNS["decompose"], 0, _merge({"tool_version": "9.9", "seed": -1})),
    (CACHED_RUNS["scheme"], 0, _merge({"tool_version": "9.9", "seed": -1})),
    (CACHED_RUNS["scheme"], 0, _merge({"commutative": 1})),
    (CACHED_RUNS["scheme"], 0, _merge({"rank": 4.0})),
    (CACHED_RUNS["scheme"], 0, _merge({"valencies": [1.0, 1, 2, 4]})),
    (CACHED_RUNS["scheme"], 0, _NEGATIVE_P),
    (("decompose", *FINER, "--level", "3"), 0, _NOT_ASSOCIATIVE),
], ids=["decompose-p-entry", "decompose-commutative-int", "decompose-rank-float",
        "nesting-p-entry", "nesting-commutative-int", "nesting-rank-float",
        "decompose-envelope", "scheme-envelope", "commutative-int", "rank-float",
        "valency-float", "scheme-negative-p", "decompose-not-associative"])
def test_tampered_cache_entry_is_recomputed(capsys, tmp_path, finer_file, command, offset,
                                           tamper):
    # offset 1 tampers with level n+1's entry, which --nesting reads
    uncached = [run(capsys, *command, *mode) for mode in ((), ("--json",))]
    cache_dir = tmp_path / "cache"
    run(capsys, *command, "--cache-dir", str(cache_dir))
    level = int(command[command.index("--level") + 1]) + offset
    path = _entry_path(cache_dir, command, level)
    stored = json.loads(path.read_text())
    tampered = tamper(stored)
    assert json.dumps(tampered) != json.dumps(stored)
    assert tampered.keys() - {"tool_version", "seed"} <= stored.keys()
    path.write_text(json.dumps(tampered))
    for mode, expected in zip(((), ("--json",)), uncached):
        assert run(capsys, *command, *mode, "--cache-dir", str(cache_dir)) == expected
        assert json.loads(path.read_text()) == stored  # rewritten by the recompute
        path.write_text(json.dumps(tampered))


def test_cache_hit_past_its_check_budget_is_recomputed(capsys, tmp_path, finer_file,
                                                       monkeypatch):
    # 8 KiB of physical memory fits the rank-6 scheme's p (8 r^3 = 1728
    # bytes) but not its product-rule check (25 r^3 = 5400): the build runs,
    # and a stored entry is rebuilt rather than failing the run.
    command = ("scheme", *FINER, "--level", "3", "--json")
    cache_dir = str(tmp_path / "cache")
    assert run(capsys, *command, "--cache-dir", cache_dir)[0] == 0
    monkeypatch.setattr("selfsim.orbits._physical_memory", lambda: 8 << 10)
    uncached = run(capsys, *command)
    assert uncached[0] == 0
    assert run(capsys, *command, "--cache-dir", cache_dir) == uncached


@pytest.mark.parametrize("argv", [
    ("--group", "grigorchuk", "--level", "3"),
    (*FINER, "--level", "3"),
], ids=["certified", "declined"])
def test_oracle_mismatch_names_the_printed_degrees(capsys, monkeypatch, finer_file, argv):
    # The printed degrees are the closed form's on a certified level and p's
    # elsewhere; the message names neither source.
    monkeypatch.setattr("selfsim.cli.dense_commutant_oracle", lambda scheme, seed: [1])
    message = "dense oracle disagrees with the printed degrees"
    code, out, err = run(capsys, "decompose", *argv, "--oracle")
    assert (code, err) == (3, f"error: {message}\n")
    assert out.endswith("oracle degrees: [1]\n")
    code, doc, err = run_json(capsys, "decompose", *argv, "--oracle")
    assert code == 3 and doc["oracle_degrees"] == [1]
    assert json.loads(err) == {"error": "verification", "message": message}


def _count_calls(monkeypatch, name, record):
    """Wrap selfsim.orbits.<name>; each call appends record(*args) to the
    returned list."""
    calls = []
    honest = getattr(selfsim.orbits, name)

    def counted(*args):
        calls.append(record(*args))
        return honest(*args)

    monkeypatch.setattr(f"selfsim.orbits.{name}", counted)
    return calls


@pytest.mark.parametrize("text,argv,words,letters", [
    # certified at levels 4 and 5: check 3 on 2121 and 121 (21 begins 2121),
    # then on 21212 and 1212 (212 and 12 begin longer words)
    (CONE_CASES["ternary-ray-21"][0], ("--ray", "21", "--level", "4", "--nesting", "--oracle"),
     [(2, 1, 2, 1), (1, 2, 1), (2, 1, 2, 1, 2), (1, 2, 1, 2)], [0, 1]),
    # declined at check 2 on letter 3 (2 counted from 0), at levels 4 and 5
    (FINER_THAN_CONES, ("--ray", "3", "--level", "4", "--nesting"), [], [2]),
    # declined at check 3 on 2222 and 22222
    (ADDING_MACHINE, ("--level", "4", "--nesting"), [(2, 2, 2, 2), (2, 2, 2, 2, 2)], [1]),
], ids=["certified", "declined-at-check-2", "declined-at-check-3"])
def test_one_decompose_computes_each_certificate_fact_once(capsys, monkeypatch, tmp_path,
                                                          text, argv, words, letters):
    # decompose certifies level 4 for its degrees and again in build_scheme
    # (--oracle, or a declined level's p), then level 5 for --nesting: the
    # level-free facts once, and check 3 once per distinct base word.
    path = tmp_path / "input.txt"
    path.write_text(text)
    orbitals = _count_calls(monkeypatch, "_letter_orbitals", lambda pres: ())
    replicating = _count_calls(monkeypatch, "_self_replicating", lambda pres, letter: letter)
    whole = _count_calls(monkeypatch, "_cross_blocks_whole",
                         lambda pres, base, least, cap: base.letters)
    code, doc, err = run_json(capsys, "decompose", "--file", str(path), *argv)
    assert (code, err) == (0, "")
    assert (orbitals, replicating, whole) == ([()], letters, words)
