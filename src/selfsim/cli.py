"""Command-line front end.

Exit codes: 0 success, 1 usage or input errors, 2 computation errors
(size caps, memory, recursion depth, intransitive actions, numerical
failures), 3 verification failures.  With --json every document carries the
envelope fields tool_version, seed, group and level, and errors go to stderr
as a single JSON line (seed null for the commands that take no --seed).

The cache of --cache-dir holds one kind of entry, the scheme document of a
level, one per presentation, level and ray.  A level's scheme reaches both
commands as the arrays (valencies, pairing, p), from a revalidated entry or
the built scheme: ``scheme`` makes the document of them to print or store,
and ``decompose`` computes its degrees from p by the certified integer
pencil of ``spectral_data`` (``--nesting`` reads level n+1 the same way).
On a level the cone route certifies, with a commutative G_1 scheme,
``decompose`` needs no p: it prints the exact degrees of the certified
wreath power and touches no cache.  Either way every printed degree is
exact, and ``--seed`` matters only to ``--oracle``.  ``decompose --oracle``
and ``scheme --dot`` build the scheme and touch no cache.

Each command has a parser of its own, built on that command's first
``main`` call, not at import, and reused by every later call in the same
process.  The top-level parser of every command is built only when no
command leads the argv: for --help, --version, a missing or unknown command
and an option before the command.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

import numpy as np

from . import __version__, cache
from .catalog import builtin, keys
from .errors import (IntegrityError, PresentationError, SelfSimError, SizeCapError,
                     UnknownGroupError)
from .orbits import stabilizer_suborbits
from .render import check_orbital_graph_size, orbital_graph_dot, portrait_dot
from .scheme import axiom_violations, build_scheme, scheme_json_doc
from .spectral import (DEFAULT_SEED, degrees_embed, dense_commutant_oracle,
                       intersection_matrices, spectral_data)
from .tree import DEFAULT_LEVEL_CAP, Vertex, all_d_ray, check_level_size, parse_ray
from .verify import DEFAULT_CASES, closed_form_degrees, run_verification
from .wreath import (Word, cycle_notation, load_presentation, order_at_level,
                     portrait, section, act)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(sp, ray: bool, cap: bool = True, cached: bool = False):
    sp.add_argument("--group", help="catalog key (see 'selfsim catalog list')")
    sp.add_argument("--file", help="path to a presentation file")
    if cap:
        sp.add_argument("--cap", type=int, default=DEFAULT_LEVEL_CAP,
                        help="largest level size the run may touch")
    if ray:  # read by decompose --oracle and verify; the benchmark passes it to all four
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for the randomized numerics")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    if cached:
        sp.add_argument("--cache-dir", help="advisory result cache directory")
    if ray:
        sp.add_argument("--ray", help="base ray: digit string (periodic tail) "
                                      "or 'dinf' (default)")


def _add_catalog(sp):
    sp.add_argument("action", nargs="?", choices=["list"], default="list")
    sp.add_argument("--json", action="store_true")


def _add_vertex(sp):
    _add_common(sp, ray=False, cap=False)
    sp.add_argument("--word", required=True)
    sp.add_argument("--vertex", required=True)


def _add_order(sp):
    _add_common(sp, ray=False)
    sp.add_argument("--word", required=True)
    sp.add_argument("--level", type=int, required=True)


def _add_portrait(sp):
    _add_common(sp, ray=False)
    sp.add_argument("--word", required=True)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--dot", action="store_true", help="emit graphviz DOT")


def _add_orbits(sp):
    _add_common(sp, ray=True)
    sp.add_argument("--level", type=int, required=True)


def _add_scheme(sp):
    _add_common(sp, ray=True, cached=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--dot", action="store_true",
                    help="emit the colored orbital graph instead")


def _add_decompose(sp):
    _add_common(sp, ray=True, cached=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the dense adjacency spectrum")
    sp.add_argument("--nesting", action="store_true",
                    help="also check the degrees embed into level n+1")


def _add_verify(sp):
    _add_common(sp, ray=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--cases", type=int, default=DEFAULT_CASES)


@functools.cache
def build_parser(command: str | None = None) -> _Parser:
    """The parser of one command, or for None the top-level parser of every
    command; each is built on its first call and shared by every later one:
    parsing reads it and leaves no state in it."""
    if command is not None:
        parser = _Parser(prog=f"selfsim {command}")
        _COMMANDS[command][1](parser)
        parser.set_defaults(command=command)
        return parser
    parser = _Parser(prog="selfsim", description=__doc__.splitlines()[0]
                     if __doc__ else None)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add, _) in _COMMANDS.items():
        add(sub.add_parser(name, help=text))
    return parser


def _resolve(args):
    """Presentation, display label and base ray from the CLI flags."""
    if getattr(args, "group", None) and getattr(args, "file", None):
        raise _UsageError("give either --group or --file, not both")
    if getattr(args, "group", None):
        entry = builtin(args.group)
        pres, label = entry.presentation, entry.key
        ray = entry.default_ray
    elif getattr(args, "file", None):
        pres, label = load_presentation(args.file), args.file
        ray = all_d_ray(pres.degree)
    else:
        raise _UsageError("one of --group or --file is required")
    if getattr(args, "ray", None):
        ray = parse_ray(args.ray, pres.degree)
    return pres, label, ray


def _envelope(args, group, level):
    return {
        "tool_version": __version__,
        "seed": getattr(args, "seed", None),
        "group": group,
        "level": level,
    }


# Entries of an integer array written per chunk.  The array passes of one
# chunk hold about 16 bytes per digit of its widest entry and a few dozen
# more per entry: near 4 MB for 3-digit entries.  A small array is one chunk.
_OUTPUT_ENTRIES = 1 << 16
# 10^19 ... 10^0: the place values of the digits of a uint64
_POWERS = np.uint64(10) ** np.arange(19, -1, -1, dtype=np.uint64)


# The text json.dumps writes for the leaves a document holds most, by exact
# type: a bool is not written as an int, nor a str subclass looked up here.
_LEAF_TEXT = {str: _encode_str, int: int.__repr__, bool: lambda b: "true" if b else "false",
              type(None): lambda _: "null"}


def _json_chunks(value, level: int = 0) -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2)`` at nesting ``level``, as
    chunks to stream.  A list of ints, or of strings, is one join; an
    integer array is written as its ``tolist()`` would be, in array passes
    over whole slices, with no list made of it; a leaf of any other type is
    ``json.dumps``'s own text, so the writer fails where it fails, once the
    chunks before that leaf are out."""
    leaf = _LEAF_TEXT.get(type(value))
    if leaf is not None:
        yield leaf(value)
    elif isinstance(value, np.ndarray) and value.ndim and value.dtype.kind in "iu":
        yield from _int_array_chunks(value, level)
    elif isinstance(value, (dict, list, tuple)) and not value:
        yield "{}" if isinstance(value, dict) else "[]"
    elif isinstance(value, dict):
        inner = "\n" + "  " * (level + 1)
        for i, (key, item) in enumerate(value.items()):
            # a key that is not a string is written, or refused, as json writes it
            name = _encode_str(key) if type(key) is str else json.dumps({key: 0})[1:-4]
            yield ("," if i else "{") + inner + name + ": "
            yield from _json_chunks(item, level + 1)
        yield "\n" + "  " * level + "}"
    elif isinstance(value, (list, tuple)):
        inner, close = "\n" + "  " * (level + 1), "\n" + "  " * level + "]"
        joined = _joined_leaves(value, "," + inner)
        if joined is not None:
            yield "[" + inner + joined + close
            return
        for i, item in enumerate(value):
            yield ("," if i else "[") + inner
            yield from _json_chunks(item, level + 1)
        yield close
    else:
        yield json.dumps(value)


def _joined_leaves(value, sep: str) -> str | None:
    """``sep.join`` of the texts of a non-empty list's items where all are
    leaves of one type in _LEAF_TEXT, or all strings; else None.  The
    strings are quoted as they are where their concatenation needs no
    escape."""
    if isinstance(value[0], str):
        try:
            whole = "".join(value)
        except TypeError:  # an item that is not a string
            return None
        if len(_encode_str(whole)) == len(whole) + 2:  # an escape is longer than its character
            return '"' + f'"{sep}"'.join(value) + '"'
        return sep.join(map(_encode_str, value))
    kinds = set(map(type, value))
    if len(kinds) == 1 and kinds <= _LEAF_TEXT.keys():
        return sep.join(map(_LEAF_TEXT[kinds.pop()], value))
    return None


def _int_array_chunks(value: np.ndarray, level: int) -> Iterator[str]:
    """An integer array at nesting ``level``, as its ``tolist()`` is written
    there: whole slices ``value[i]``, about _OUTPUT_ENTRIES entries a chunk."""
    if not value.size:  # nested empty lists
        yield from _json_chunks(value.tolist(), level)
        return
    step = max(1, _OUTPUT_ENTRIES * len(value) // value.size)
    for start in range(0, len(value), step):
        text = _int_items(value[start:start + step], level)
        yield "[" + text[1:] if start == 0 else text
    yield "\n" + "  " * level + "]"


def _int_items(block: np.ndarray, level: int) -> str:
    """The items of the list an integer array writes at nesting ``level``,
    each behind its comma and line break, in array passes: an entry is its
    sign and decimal digits as bytes, each inner list opens where its first
    item's comma stands and closes after its last item, and the zero bytes
    that stand for no sign and for leading zeros are dropped."""
    # |x| as uint64: |-2^63| wraps to -2^63 in int64, which uint64 reads as 2^63
    magnitude = (np.abs(block.astype(np.int64)) if block.dtype.kind == "i"
                 else block).astype(np.uint64)
    powers = _POWERS[-len(str(magnitude.max())):]
    shown = magnitude[..., None] >= powers  # no leading zero; 0 keeps its ones digit
    shown[..., -1] = True
    text = np.empty((*block.shape, 1 + len(powers)), np.uint8)
    text[..., 0] = (block < 0) * ord("-")
    text[..., 1:] = (magnitude[..., None] // powers % np.uint64(10) + np.uint64(ord("0"))) * shown
    for axis in reversed(range(block.ndim)):
        indent = "\n" + "  " * (level + axis + 1)
        text = _framed(text, "," + indent, indent + "]" if axis < block.ndim - 1 else "")
        if axis:
            text[..., 0, 0] = ord("[")
            text = text.reshape(*text.shape[:-2], -1)
    return text[text != 0].tobytes().decode()


def _framed(text: np.ndarray, head: str, tail: str) -> np.ndarray:
    """Each row of bytes on the last axis of text, with head before it and
    tail after it."""
    width = text.shape[-1]
    framed = np.empty((*text.shape[:-1], len(head) + width + len(tail)), np.uint8)
    framed[..., :len(head)] = np.frombuffer(head.encode(), np.uint8)
    framed[..., len(head):len(head) + width] = text
    framed[..., len(head) + width:] = np.frombuffer(tail.encode(), np.uint8)
    return framed


def _emit(args, envelope: dict, payload: dict, human: str) -> None:
    """Print the document, with --json as ``json.dumps(doc, indent=2)``
    writes it, streamed chunk by chunk."""
    if args.json:
        sys.stdout.writelines(_json_chunks(envelope | payload))
        sys.stdout.write("\n")
    else:
        print(human)


def _cache_dir(args) -> Path | None:
    return Path(args.cache_dir) if args.cache_dir else None


# ---------------------------------------------------------------------------
# handlers


def _cmd_catalog(args) -> int:
    rows = []
    for key in keys():
        entry = builtin(key)
        rows.append({
            "key": key,
            "degree": entry.degree,
            "generators": list(entry.presentation.generator_names),
        })
    human = "\n".join(
        f"{row['key']:18} degree={row['degree']} generators={','.join(row['generators'])}"
        for row in rows
    )
    _emit(args, _envelope(args, None, None), {"groups": rows}, human)
    return 0


def _cmd_act(args) -> int:
    """``act`` prints the image of the vertex, ``section`` the word below it."""
    pres, label, _ = _resolve(args)
    word = pres.parse_word(args.word)
    vertex = Vertex.parse(args.vertex, pres.degree)
    key, apply = ("image", act) if args.command == "act" else ("section", section)
    result = str(apply(pres, word, vertex))
    payload = {"word": str(word), "vertex": str(vertex), key: result}
    _emit(args, _envelope(args, label, vertex.level), payload, result)
    return 0


def _cmd_order(args) -> int:
    pres, label, _ = _resolve(args)
    word = pres.parse_word(args.word)
    value = order_at_level(pres, word, args.level, args.cap)
    payload = {"word": str(word), "order": value}
    _emit(args, _envelope(args, label, args.level), payload, str(value))
    return 0


def _portrait_payload(node) -> dict:
    doc = {"perm": cycle_notation(node.root_perm)}
    if node.word is not None:
        doc["word"] = str(node.word)
    if node.children:
        doc["children"] = [_portrait_payload(c) for c in node.children]
    return doc


def _portrait_text(node, path: str, depth: int) -> list[str]:
    label = cycle_notation(node.root_perm)
    if node.word is not None and len(node.word) > 0:
        label += f"  {node.word}"
    lines = ["  " * depth + f"{path}: {label}"]
    for i, child in enumerate(node.children, start=1):
        if child.is_trivial():
            continue
        child_path = str(i) if path == "-" else path + str(i)
        lines.extend(_portrait_text(child, child_path, depth + 1))
    return lines


def _cmd_portrait(args) -> int:
    pres, label, _ = _resolve(args)
    word = pres.parse_word(args.word)
    node = portrait(pres, word, args.depth, args.cap)
    if args.dot:
        print(portrait_dot(node), end="")
        return 0
    payload = {"depth": args.depth, "portrait": _portrait_payload(node)}
    human = "\n".join(_portrait_text(node, "-", 0))
    _emit(args, _envelope(args, label, args.depth), payload, human)
    return 0


def _cmd_orbits(args) -> int:
    pres, label, ray = _resolve(args)
    parts = stabilizer_suborbits(pres, args.level, ray, args.cap)
    blocks = parts.blocks_as_vertices()
    payload = {"level": args.level, "base": str(parts.base), "blocks": blocks}
    lines = [f"base {parts.base}: {parts.rank} suborbits"]
    if not args.json:  # a text of every vertex, made only where it is printed
        lines += [f"  [{len(block)}] " + " ".join(block) for block in blocks]
    _emit(args, _envelope(args, label, args.level), payload, "\n".join(lines))
    return 0


def _valid_scheme_payload(doc: dict, point_count: int) -> tuple | None:
    """The arrays (valencies, pairing, p) of a cached entry that is what
    ``scheme_json_doc`` writes for integer data passing the scheme axioms and
    the product rule; None for anything else, a foreign key or a wrong type
    included, and for a p whose product-rule check would be refused."""
    try:
        data = valencies, pairing, p = tuple(np.asarray(doc[key], dtype=np.int64)
                                             for key in ("valencies", "pairing", "p"))
        r = len(valencies)
        rebuilt = scheme_json_doc(*data)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if not (cache.encode(doc) == cache.encode(rebuilt)
            and valencies.shape == pairing.shape == (r,) and p.shape == (r, r, r)
            and not axiom_violations(valencies, p, tuple(rebuilt["pairing"]), point_count)):
        return None
    try:
        intersection_matrices(p)
    except (IntegrityError, SizeCapError):
        return None
    return data


def _scheme_data(args, pres, n, ray, directory: Path | None) -> tuple:
    """Level n's (valencies, pairing, p), the one cache entry per
    presentation, level and ray.  ``--cap`` is checked first; then an entry
    that passes revalidation is served, or the scheme is built and its entry
    stored."""
    size = check_level_size(pres.degree, n, args.cap)
    if directory is not None:
        key = cache.cache_key(pres, n, ray)
        doc = cache.load(directory, key)
        data = None if doc is None else _valid_scheme_payload(doc, size)
        if data is not None:
            return data
    scheme = build_scheme(pres, n, ray, args.cap)
    data = scheme.valencies, scheme.pairing, scheme.p
    if directory is not None:
        cache.store(directory, key, scheme_json_doc(*data))
    return data


def _cmd_scheme(args) -> int:
    if args.dot and args.cache_dir:
        raise _UsageError("--dot neither reads nor writes the cache; drop --cache-dir")
    pres, label, ray = _resolve(args)
    if args.dot:
        check_orbital_graph_size(check_level_size(pres.degree, args.level, args.cap))
        sys.stdout.writelines(orbital_graph_dot(build_scheme(pres, args.level, ray, args.cap)))
        return 0
    payload = scheme_json_doc(*_scheme_data(args, pres, args.level, ray, _cache_dir(args)))
    human = "\n".join([
        f"rank {payload['rank']}, commutative: {payload['commutative']}",
        f"valencies: {payload['valencies']}",
        f"pairing:   {payload['pairing']}",
    ])
    _emit(args, _envelope(args, label, args.level), payload, human)
    return 0


def _degrees(args, pres, n, ray, scheme=None) -> list[int]:
    """Level n's exact degrees: the closed form where the cone route
    certifies the level, else the certified pencil on p, read off
    ``scheme`` where one is built and from ``_scheme_data`` otherwise
    (``--oracle`` touches no cache)."""
    degrees = closed_form_degrees(pres, n, ray, args.cap)
    if degrees is None:
        p = (scheme.p if scheme is not None else
             _scheme_data(args, pres, n, ray, None if args.oracle else _cache_dir(args))[2])
        degrees = spectral_data(p).degrees
    return degrees


def _cmd_decompose(args) -> int:
    pres, label, ray = _resolve(args)
    # built, not cached: a cached scheme would skip the dense cross-check
    scheme = build_scheme(pres, args.level, ray, args.cap) if args.oracle else None
    degrees = _degrees(args, pres, args.level, ray, scheme)
    # spectral_data refuses a p that is not commutative, and a wreath power
    # of a commutative scheme is commutative
    payload = {
        "level": args.level,
        "rank": len(degrees),
        "degrees": degrees,
        "gelfand": True,
        "nested_in_next": None,
    }
    lines = [f"level {args.level}: rank {len(degrees)}, gelfand: True",
             f"degrees: {degrees}"]
    if args.nesting:
        there = _degrees(args, pres, args.level + 1, ray)
        payload["nested_in_next"] = degrees_embed(degrees, there)
        lines.append(f"nested in level {args.level + 1}: {payload['nested_in_next']}")
    if args.oracle:
        payload["oracle_degrees"] = dense_commutant_oracle(scheme, args.seed)
        lines.append(f"oracle degrees: {payload['oracle_degrees']}")
    _emit(args, _envelope(args, label, args.level), payload, "\n".join(lines))
    if args.oracle and payload["oracle_degrees"] != degrees:
        _fail(args, "verification", "dense oracle disagrees with the printed degrees")
        return 3
    return 0


def _cmd_verify(args) -> int:
    if args.cases < 1:
        raise _UsageError(f"--cases must be at least 1, got {args.cases}")
    pres, label, ray = _resolve(args)
    results = run_verification(pres, args.level, ray, args.seed, args.cases,
                               args.cap)
    ok = all(r.passed for r in results)
    payload = {
        "ok": ok,
        "suites": [
            {"name": r.name, "cases": r.cases, "failures": r.failures,
             "detail": r.detail}
            for r in results
        ],
    }
    lines = []
    for r in results:
        if r.passed:
            note = f" ({r.detail})" if r.detail else ""
            lines.append(f"PASS {r.name}: {r.cases} cases{note}")
        else:
            lines.append(f"FAIL {r.name}: {r.failures} of {r.cases} cases: {r.detail}")
    _emit(args, _envelope(args, label, args.level), payload, "\n".join(lines))
    return 0 if ok else 3


# name -> (help in the command list, the function that adds its arguments,
# the handler)
_COMMANDS = {
    "catalog": ("list the built-in groups", _add_catalog, _cmd_catalog),
    "act": ("apply a word to a vertex", _add_vertex, _cmd_act),
    "section": ("restriction of a word below a vertex", _add_vertex, _cmd_act),
    "order": ("order of a word on one level", _add_order, _cmd_order),
    "portrait": ("expand the recursion of a word", _add_portrait, _cmd_portrait),
    "orbits": ("stabilizer suborbits on a level", _add_orbits, _cmd_orbits),
    "scheme": ("orbital scheme of a level action", _add_scheme, _cmd_scheme),
    "decompose": ("irreducible component degrees", _add_decompose, _cmd_decompose),
    "verify": ("run the randomized invariant suites", _add_verify, _cmd_verify),
}


def _fail(args, kind: str, message: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in _COMMANDS:
            args = build_parser(argv[0]).parse_args(argv[1:])
        else:  # --help, --version, no or an unknown command, an option before it
            args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        # the commands that seed numpy, which takes no negative seed
        if args.command in ("decompose", "verify") and args.seed < 0:
            raise _UsageError(f"--seed must be at least 0, got {args.seed}")
        # no level fits under such a cap
        if getattr(args, "cap", 1) < 1:
            raise _UsageError(f"--cap must be at least 1, got {args.cap}")
        return _COMMANDS[args.command][2](args)
    except _UsageError as exc:
        _fail(args, "usage", str(exc))
        return 1
    except (PresentationError, UnknownGroupError) as exc:
        _fail(args, type(exc).__name__, str(exc))
        return 1
    except ValueError as exc:
        _fail(args, "ValueError", str(exc))
        return 1
    except OSError as exc:
        _fail(args, "OSError", str(exc))
        return 1
    except MemoryError as exc:
        _fail(args, "MemoryError", str(exc) or "out of memory")
        return 2
    except RecursionError as exc:
        _fail(args, "RecursionError", str(exc))
        return 2
    except SelfSimError as exc:
        _fail(args, type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
