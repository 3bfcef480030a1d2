import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfsim
from selfsim import __version__, cache
from selfsim.cli import main

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
        "message": "orbital graph export needs the materialized label table "
                   "(8192 points is past the cap)",
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


def test_level_past_physical_memory_exits_two(capsys):
    # 2^20 points pass the default --cap; the N x N table would need 8 TiB
    code, out, err = run(capsys, "orbits", "--group", "grigorchuk",
                         "--level", "20", "--json")
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "SizeCapError"
    assert f"{8 << 40} bytes" in doc["message"]


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


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SELFSIM_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run_json(capsys, "decompose", "--group", "grigorchuk",
                          "--level", "2")
    assert code == 0
    assert list((tmp_path / "envcache").glob("*.json"))


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_verify_needs_a_case(capsys, cases):
    code, out, err = run(capsys, "verify", "--group", "grigorchuk",
                         "--level", "2", "--cases", cases)
    assert code == 1
    assert out == ""
    assert "--cases must be at least 1" in err


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


def test_decompose_oracle_skips_the_cache(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    code, doc, _ = run_json(capsys, "decompose", "--group", "gamma", "--level", "2",
                            "--oracle", "--cache-dir", str(cache_dir))
    assert code == 0 and doc["oracle_degrees"] == doc["degrees"]
    assert not cache_dir.exists() or not any(cache_dir.iterdir())


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


CACHED_RUNS = {
    "scheme": ("scheme", "--group", "grigorchuk", "--level", "3"),
    "decompose": ("decompose", "--group", "gamma", "--level", "2"),
    "decompose-nesting": ("decompose", "--group", "gamma", "--level", "2", "--nesting"),
}


@pytest.mark.parametrize("command", CACHED_RUNS.values(), ids=CACHED_RUNS.keys())
def test_valid_cache_entry_is_served(capsys, tmp_path, monkeypatch, command):
    cache_dir = str(tmp_path / "cache")
    first = run(capsys, *command, "--json", "--cache-dir", cache_dir)
    def no_recompute(*args, **kwargs):
        raise AssertionError("a valid entry was recomputed")
    monkeypatch.setattr("selfsim.cli.build_scheme", no_recompute)
    assert run(capsys, *command, "--json", "--cache-dir", cache_dir) == first
    assert run(capsys, *command, "--cache-dir", cache_dir)[0] == 0


@pytest.mark.parametrize("command,tamper", [
    (CACHED_RUNS["decompose-nesting"], {"nested_in_next": "garbage"}),
    (CACHED_RUNS["decompose-nesting"], {"nested_in_next": None}),
    (CACHED_RUNS["decompose"], {"nested_in_next": True}),
    (CACHED_RUNS["decompose"], {"tool_version": "9.9", "seed": -1}),
    (CACHED_RUNS["decompose"], {"gelfand": 1}),
    (CACHED_RUNS["decompose"], {"degrees": [1, 1, 1, 3.0, 3]}),
    (CACHED_RUNS["scheme"], {"tool_version": "9.9", "seed": -1}),
    (CACHED_RUNS["scheme"], {"commutative": 1}),
    (CACHED_RUNS["scheme"], {"rank": 4.0}),
    (CACHED_RUNS["scheme"], {"valencies": [1.0, 1, 2, 4]}),
], ids=["nested-garbage", "nested-none", "nested-unasked", "decompose-envelope",
        "gelfand-int", "degree-float", "scheme-envelope", "commutative-int",
        "rank-float", "valency-float"])
def test_tampered_cache_entry_is_recomputed(capsys, tmp_path, command, tamper):
    uncached = [run(capsys, *command, *mode) for mode in ((), ("--json",))]
    cache_dir = tmp_path / "cache"
    run(capsys, *command, "--cache-dir", str(cache_dir))
    path = next(cache_dir.glob("*.json"))
    stored = json.loads(path.read_text())
    assert tamper.keys() - {"tool_version", "seed"} <= stored.keys()
    path.write_text(json.dumps(stored | tamper))
    for mode, expected in zip(((), ("--json",)), uncached):
        assert run(capsys, *command, *mode, "--cache-dir", str(cache_dir)) == expected
        assert json.loads(path.read_text()) == stored  # rewritten by the recompute
        path.write_text(json.dumps(stored | tamper))
