"""Command-line front end.

Exit codes: 0 success, 1 usage or input errors, 2 computation errors
(size caps, memory, recursion depth, intransitive actions, numerical
failures), 3
verification failures.  With --json every document carries the envelope fields
tool_version, seed, group and level, and errors go to stderr as a single
JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, cache
from .catalog import builtin, keys
from .errors import PresentationError, SelfSimError, UnknownGroupError
from .orbits import stabilizer_suborbits
from .render import check_orbital_graph_size, orbital_graph_dot, portrait_dot
from .scheme import axiom_violations, build_scheme, is_commutative, scheme_json_doc
from .spectral import (DEFAULT_SEED, degree_multiset_from_scheme, degrees_embed,
                       dense_commutant_oracle)
from .tree import DEFAULT_LEVEL_CAP, Vertex, all_d_ray, check_level_size, parse_ray
from .verify import DEFAULT_CASES, run_verification
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
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seed for the randomized numerics")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    if cached:
        sp.add_argument("--cache-dir", help="advisory result cache directory "
                                            f"(or ${cache.ENV_VAR})")
    if ray:
        sp.add_argument("--ray", help="base ray: digit string (periodic tail) "
                                      "or 'dinf' (default)")


def build_parser() -> _Parser:
    parser = _Parser(prog="selfsim", description=__doc__.splitlines()[0]
                     if __doc__ else None)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("catalog", help="list the built-in groups")
    sp.add_argument("action", nargs="?", choices=["list"], default="list")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    sp = sub.add_parser("act", help="apply a word to a vertex")
    _add_common(sp, ray=False, cap=False)
    sp.add_argument("--word", required=True)
    sp.add_argument("--vertex", required=True)

    sp = sub.add_parser("section", help="restriction of a word below a vertex")
    _add_common(sp, ray=False, cap=False)
    sp.add_argument("--word", required=True)
    sp.add_argument("--vertex", required=True)

    sp = sub.add_parser("order", help="order of a word on one level")
    _add_common(sp, ray=False)
    sp.add_argument("--word", required=True)
    sp.add_argument("--level", type=int, required=True)

    sp = sub.add_parser("portrait", help="expand the recursion of a word")
    _add_common(sp, ray=False)
    sp.add_argument("--word", required=True)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--dot", action="store_true", help="emit graphviz DOT")

    sp = sub.add_parser("orbits", help="stabilizer suborbits on a level")
    _add_common(sp, ray=True)
    sp.add_argument("--level", type=int, required=True)

    sp = sub.add_parser("scheme", help="orbital scheme of a level action")
    _add_common(sp, ray=True, cached=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--dot", action="store_true",
                    help="emit the colored orbital graph instead")

    sp = sub.add_parser("decompose", help="irreducible component degrees")
    _add_common(sp, ray=True, cached=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the dense adjacency spectrum")
    sp.add_argument("--nesting", action="store_true",
                    help="also check the degrees embed into level n+1")

    sp = sub.add_parser("verify", help="run the randomized invariant suites")
    _add_common(sp, ray=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--cases", type=int, default=DEFAULT_CASES)

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
        "seed": getattr(args, "seed", DEFAULT_SEED),
        "group": group,
        "level": level,
    }


def _emit(args, envelope: dict, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(envelope | payload, indent=2))
    else:
        print(human)


def _cache_dir(args) -> Path | None:
    if args.cache_dir:
        return Path(args.cache_dir)
    return cache.cache_dir_from_env()


def _cached_payload(args, pres, n, ray, kind, validate, compute) -> dict:
    directory = _cache_dir(args)
    if directory is None:
        return compute()
    key = cache.cache_key(pres, n, ray, kind)
    doc = cache.load(directory, key)
    if doc is not None and validate(doc):
        return doc
    payload = compute()
    cache.store(directory, key, payload)
    return payload


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
    blocks = parts.blocks_as_vertices(pres.degree)
    payload = {"level": args.level, "base": str(parts.base), "blocks": blocks}
    lines = [f"base {parts.base}: {parts.rank} suborbits"]
    lines += [f"  [{len(block)}] " + " ".join(block) for block in blocks]
    _emit(args, _envelope(args, label, args.level), payload, "\n".join(lines))
    return 0


def _valid_scheme_payload(doc: dict, point_count: int) -> bool:
    """Whether a cached entry is what ``scheme_json_doc`` writes for integer
    data that passes the scheme axioms; a foreign key or a wrong type fails."""
    try:
        valencies, pairing, p = (np.asarray(doc[key], dtype=np.int64)
                                 for key in ("valencies", "pairing", "p"))
        r = len(valencies)
        rebuilt = {"rank": r, "valencies": valencies.tolist(), "pairing": pairing.tolist(),
                   "commutative": bool(np.array_equal(p, p.transpose(1, 0, 2))),
                   "p": p.tolist()}
    except (KeyError, TypeError, ValueError, OverflowError):
        return False
    if json.dumps(doc) != json.dumps(rebuilt):
        return False
    return (valencies.shape == pairing.shape == (r,) and p.shape == (r, r, r)
            and not axiom_violations(valencies, p, tuple(rebuilt["pairing"]), point_count))


def _cmd_scheme(args) -> int:
    pres, label, ray = _resolve(args)
    size = check_level_size(pres.degree, args.level, args.cap)
    if args.dot:
        check_orbital_graph_size(size)
        scheme = build_scheme(pres, args.level, ray, args.cap)
        print(orbital_graph_dot(scheme), end="")
        return 0

    def compute() -> dict:
        return scheme_json_doc(build_scheme(pres, args.level, ray, args.cap))

    payload = _cached_payload(args, pres, args.level, ray, "scheme",
                              lambda doc: _valid_scheme_payload(doc, size), compute)
    human = "\n".join([
        f"rank {payload['rank']}, commutative: {payload['commutative']}",
        f"valencies: {payload['valencies']}",
        f"pairing:   {payload['pairing']}",
    ])
    _emit(args, _envelope(args, label, args.level), payload, human)
    return 0


def _valid_decompose_payload(doc: dict, level: int, point_count: int,
                             nesting: bool) -> bool:
    """Whether a cached entry is what ``compute`` writes: sorted positive
    degrees summing to the point count, ``nested_in_next`` a bool under
    --nesting and None otherwise; a foreign key or a wrong type fails."""
    try:
        degrees = [int(x) for x in doc["degrees"]]
        rebuilt = {"level": level, "rank": len(degrees), "degrees": sorted(degrees),
                   "gelfand": bool(doc["gelfand"]),
                   "nested_in_next": bool(doc["nested_in_next"]) if nesting else None}
    except (KeyError, TypeError, ValueError):
        return False
    return (json.dumps(doc) == json.dumps(rebuilt) and min(degrees, default=0) >= 1
            and sum(degrees) == point_count)


def _cmd_decompose(args) -> int:
    pres, label, ray = _resolve(args)
    size = check_level_size(pres.degree, args.level, args.cap)
    kind = f"decompose:oracle={int(args.oracle)}:nesting={int(args.nesting)}"
    mismatch = False

    def compute() -> dict:
        nonlocal mismatch
        scheme = build_scheme(pres, args.level, ray, args.cap)
        degrees = degree_multiset_from_scheme(scheme, args.seed)
        doc = {
            "level": args.level,
            "rank": scheme.rank,
            "degrees": degrees,
            "gelfand": is_commutative(scheme),
            "nested_in_next": None,
        }
        if args.nesting:
            doc["nested_in_next"] = degrees_embed(degrees, degree_multiset_from_scheme(
                build_scheme(pres, args.level + 1, ray, args.cap), args.seed))
        if args.oracle:
            doc["oracle_degrees"] = dense_commutant_oracle(scheme, args.seed)
            mismatch = doc["oracle_degrees"] != degrees
        return doc

    if args.oracle:  # a cached oracle run would skip the cross-check
        payload = compute()
    else:
        payload = _cached_payload(
            args, pres, args.level, ray, kind,
            lambda doc: _valid_decompose_payload(doc, args.level, size, args.nesting),
            compute,
        )
    lines = [f"level {payload['level']}: rank {payload['rank']}, "
             f"gelfand: {payload['gelfand']}",
             f"degrees: {payload['degrees']}"]
    if payload.get("nested_in_next") is not None:
        lines.append(f"nested in level {args.level + 1}: {payload['nested_in_next']}")
    if "oracle_degrees" in payload:
        lines.append(f"oracle degrees: {payload['oracle_degrees']}")
    _emit(args, _envelope(args, label, args.level), payload, "\n".join(lines))
    if mismatch:
        _fail(args, "verification", "dense oracle disagrees with the "
                                    "intersection-number degrees")
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


_HANDLERS = {
    "catalog": _cmd_catalog,
    "act": _cmd_act,
    "section": _cmd_act,
    "order": _cmd_order,
    "portrait": _cmd_portrait,
    "orbits": _cmd_orbits,
    "scheme": _cmd_scheme,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
}


def _fail(args, kind: str, message: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args)
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
