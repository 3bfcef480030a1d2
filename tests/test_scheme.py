import gc
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from axiom_reference import axiom_messages_reference
from families import CONE_CASES, FINER_THAN_CONES, NON_COMMUTATIVE, family, in_draw
from label_table import path_counts, table_route
from scheme_routes import fold_scheme

from selfsim import cache
from selfsim.catalog import builtin, keys, source_text
from selfsim.cli import main
from selfsim.errors import IntegrityError
from selfsim.orbits import SuborbitPartition, cone_suborbits, orbit_transversal
from selfsim.render import orbital_graph_dot
from selfsim.scheme import (_VIOLATION_LIMIT, _axiom_messages, axiom_violations,
                            build_scheme, scheme_from_partition,
                            is_commutative, scheme_json_doc, verify_scheme_axioms)
from selfsim.spectral import dense_commutant_oracle, spectral_data
from selfsim.tree import parse_ray
from selfsim.verify import _label_invariance, _scheme_axioms
from selfsim.wreath import level_permutation, parse_presentation

def _scheme(key, n, **kw):
    e = builtin(key)
    return build_scheme(e.presentation, n, e.default_ray, **kw)


def test_grigorchuk_level_one():
    s = _scheme("grigorchuk", 1)
    assert s.rank == 2
    assert list(s.valencies) == [1, 1]
    assert s.p[1][1][0] == 1
    assert s.p[1][1][1] == 0


def test_grigorchuk_level_two():
    s = _scheme("grigorchuk", 2)
    assert s.rank == 3
    assert list(s.valencies) == [1, 1, 2]


def test_gupta_sidki_level_one_pairing():
    s = _scheme("gupta-sidki", 1)
    assert s.rank == 3
    assert list(s.valencies) == [1, 1, 1]
    assert s.pairing == (0, 2, 1)


def test_hecke_dimension():
    assert _scheme("grigorchuk", 4).rank == 5
    assert _scheme("gamma-bar", 3).rank == 7
    assert _scheme("gamma", 0).rank == 1


def test_commutativity_examples():
    assert is_commutative(_scheme("grigorchuk", 2).p)
    assert is_commutative(_scheme("gupta-sidki", 1).p)
    assert is_commutative(_scheme("grigorchuk", 0).p)


def test_axioms_clean():
    assert verify_scheme_axioms(_scheme("grigorchuk", 3)) == []


def test_axioms_catch_perturbation():
    s = _scheme("grigorchuk", 3)
    bad = s.p.copy()
    bad[1][2][1] += 1
    report = axiom_violations(s.valencies, bad, s.pairing, s.point_count)
    assert report
    assert any("sum_j" in line for line in report)


def test_violation_report_capped():
    s = _scheme("gamma", 2)
    bad = np.zeros_like(s.p)
    report = axiom_violations(s.valencies, bad, s.pairing, s.point_count)
    assert len(report) <= 10


def _axiom_corruptions():
    """(name, valencies, p, pairing, point count): one change each to a
    scheme's data."""
    s = _scheme("gupta-sidki", 3)
    k, p, pairing, size = s.valencies, s.p, s.pairing, s.point_count
    for entry in np.ndindex(p.shape):
        for delta in (1, -1):
            bad = p.copy()
            bad[entry] += delta
            yield f"p{list(entry)}{delta:+d}", k, bad, pairing, size
    for cls in (0, 1, s.rank - 1):
        wrong = k.copy()
        wrong[cls] += 1
        yield f"valency {cls}", wrong, p, pairing, size
    r = s.rank
    yield "three-cycle pairing", k, p, (0, 2, 3, 1) + tuple(range(4, r)), size
    yield "pairing moves the diagonal", k, p, (1, 0) + tuple(range(2, r)), size
    yield "pairing not a permutation", k, p, (0,) * r, size
    yield "negated p, pairing not a permutation", k, -p, (0,) * r, size
    yield "p of the wrong shape", k, p[:, :, :-1], pairing, size
    yield "all-zero p", k, np.zeros_like(p), pairing, size
    g = _scheme("gamma", 2)
    yield "all-zero p, gamma 2", g.valencies, np.zeros_like(g.p), g.pairing, g.point_count
    g = _scheme("grigorchuk", 3)
    moved = g.p.copy()  # p[2][1][0] to -2 with every row and weighted sum kept
    moved[2, [1, 2], 0] += (-2, 2)
    moved[2, [1, 2], 1] += (2, -2)
    yield "one negative entry, sums kept", g.valencies, moved, g.pairing, g.point_count


def test_axiom_messages_match_the_reference():
    # The whole-array compares report the per-entry loop's messages, in its
    # order, before the cap; the cap then keeps the first ten.
    long_reports = 0
    for name, k, p, pairing, size in _axiom_corruptions():
        want = list(axiom_messages_reference(k, p, pairing, size))
        assert want, name
        assert list(_axiom_messages(k, p, pairing, size)) == want, name
        assert axiom_violations(k, p, pairing, size) == want[:_VIOLATION_LIMIT], name
        long_reports += len(want) > _VIOLATION_LIMIT
    assert long_reports > 0


@pytest.mark.parametrize("key", ["grigorchuk", "grigorchuk-tilde"])
def test_pairing_identity_for_binary_groups(key):
    for n in range(6):
        s = _scheme(key, n)
        assert s.pairing == tuple(range(s.rank)), (key, n)


@pytest.mark.parametrize("key", ["gamma", "gamma-bar", "gupta-sidki"])
def test_pairing_swaps_sibling_classes(key):
    # classes come in sibling pairs (same block size, prefixes ...1 vs ...2)
    # exchanged by the transpose, regression-locked through level 4
    for n in range(1, 5):
        s = _scheme(key, n)
        want = (0,) + tuple(x for i in range(1, s.rank, 2) for x in (i + 1, i))
        assert s.pairing == want, (key, n)


def test_label_invariance_spot():
    e = builtin("gamma")
    s = build_scheme(e.presentation, 2, e.default_ray)
    rng = np.random.default_rng(5)
    names = e.presentation.generator_names
    for _ in range(50):
        word_letters = tuple((names[rng.integers(2)], int(rng.choice((-1, 1))))
                             for _ in range(rng.integers(0, 6)))
        from selfsim.wreath import Word
        perm = level_permutation(e.presentation, Word(word_letters), 2)
        x, y = int(rng.integers(9)), int(rng.integers(9))
        assert s.label(x, y) == s.label(int(perm[x]), int(perm[y]))


def test_representative_independence():
    s = _scheme("grigorchuk", 3)
    for k in range(s.rank):
        block = np.flatnonzero(s.partition.block_of == k)
        if len(block) < 2:
            continue
        other = block[1]
        col = s.label_column(other)
        counts = np.zeros((s.rank, s.rank), dtype=np.int64)
        for z in range(s.point_count):
            counts[int(s.partition.block_of[z]), int(col[z])] += 1
        assert np.array_equal(counts, s.p[:, :, k])


def test_on_demand_labels_match_materialized():
    s = _scheme("gamma", 2)
    assert "labels" not in vars(s)  # the table is built only when read
    on_demand = [(s.label_row(x), s.label_column(x)) for x in range(9)]
    p, pairing = table_route(s)
    assert np.array_equal(s.p, p)
    assert s.pairing == pairing
    for x, (row, column) in enumerate(on_demand):
        assert np.array_equal(row, s.labels[x])
        assert np.array_equal(column, s.labels[:, x])
        for y in range(9):
            assert s.label(x, y) == int(s.labels[x, y])


@pytest.mark.parametrize("key", keys())
def test_row_route_matches_the_label_table(key):
    top = 6 if builtin(key).degree == 2 else 4
    for n in range(top + 1):
        s = _scheme(key, n)
        p, pairing = table_route(s)
        assert np.array_equal(s.p, p), (key, n)
        assert s.pairing == pairing, (key, n)
        assert dense_commutant_oracle(s) == spectral_data(s.p).degrees, (key, n)


def _path_cases(s, rng, count=60):
    """Cases (x, y, i, j) for path_counts, a third each with x = y, with x and
    y in one top block of the digit tables' split at h = n // 2 letters, and
    with x and y in two top blocks where the level has two.  Half the class
    pairs are read through a vertex z, so that their count is not 0."""
    size, low = s.point_count, s.degree ** (s.level - s.level // 2)
    tops = size // low
    x = rng.integers(size, size=count)
    y = x.copy()
    block = slice(count // 3, 2 * count // 3)
    y[block] = x[block] // low * low + rng.integers(low, size=len(y[block]))
    if tops > 1:
        apart = slice(2 * count // 3, count)
        shift = 1 + rng.integers(tops - 1, size=len(y[apart]))
        y[apart] = (x[apart] // low + shift) % tops * low + rng.integers(low, size=len(y[apart]))
    z = rng.integers(size, size=count)
    labels = s.labels
    i, j = rng.integers(s.rank, size=(2, count))
    i[::2], j[::2] = labels[x, z][::2], labels[z, y][::2]
    return x, y, i, j


def _assert_path_counts_match_the_table(s, rng, where):
    x, y, i, j = _path_cases(s, rng)
    assert s.path_counts(x, y, i, j).tolist() == path_counts(s.labels, x, y, i, j), where


def test_path_counts_match_the_label_table():
    # path_counts reads one row and one column of each digit table on the
    # cone route, of the transversal table on the rows route; both must
    # count what the full label table counts, on the catalog, the fixed
    # cone cases, the finer-than-cones input and the route-certified levels
    # of a seeded family.
    rng = np.random.default_rng(36)
    for key in keys():
        pres, ray = builtin(key).presentation, builtin(key).default_ray
        for n in range(1, (8 if pres.degree == 2 else 5) + 1):
            s = build_scheme(pres, n, ray)
            assert s.partition.cones is not None, (key, n)
            _assert_path_counts_match_the_table(s, rng, (key, n))
    for name, (text, ray) in CONE_CASES.items():
        pres = parse_presentation(text)
        for n in range(1, 6):
            s = build_scheme(pres, n, parse_ray(ray, pres.degree))
            assert s.partition.cones is not None, (name, n)
            _assert_path_counts_match_the_table(s, rng, (name, n))
    pres = parse_presentation(FINER_THAN_CONES)
    for n in range(1, 5):
        s = fold_scheme(pres, n, parse_ray("3", 3))
        assert s.partition.cones is None, n
        _assert_path_counts_match_the_table(s, rng, ("finer-than-cones", n))
    certified = []
    for index, (pres, ray) in enumerate(family(2, 100)):
        with in_draw(index, pres, ray):
            for n in range(1, (5 if pres.degree == 2 else 4) + 1):
                parts = cone_suborbits(pres, n, ray)
                if parts is not None:
                    certified.append(n)
                    s = scheme_from_partition(parts)
                    _assert_path_counts_match_the_table(s, rng, (f"draw {index}", n))
    # the route's coverage of this family shows here: 30 levels past 1
    assert (len(certified), sum(n > 1 for n in certified)) == (100, 30)


def _declined():
    """A presentation and ray that the cone route declines, so that
    build_scheme reads the transversal table."""
    return parse_presentation(NON_COMMUTATIVE), parse_ray("2", 2)


def test_axioms_catch_a_broken_transversal(monkeypatch):
    # The swap also collapses the suborbits the table gives, which the
    # axioms refuse without naming the cause; the table checks do.
    pres, ray = _declined()
    tv = orbit_transversal(pres, 3, ray)
    perms = tv.perms.copy()
    base = tv.base.index()
    x = (base + 1) % len(tv)
    perms[[base, x]] = perms[[x, base]]  # u_base and u_x swapped
    monkeypatch.setattr("selfsim.orbits.orbit_transversal",
                        lambda *_: replace(tv, perms=perms))
    with pytest.raises(IntegrityError) as caught:
        build_scheme(pres, 3, ray)
    assert "label row" in str(caught.value)
    assert "diagonal" in str(caught.value)


@pytest.mark.parametrize("layout", ["rows", "cones"])
def test_a_label_source_whose_base_row_is_not_the_suborbits_is_refused(layout):
    # Whichever layout a partition reads, label_row(base) must be block_of.
    e = builtin("gupta-sidki")
    make = fold_scheme if layout == "rows" else build_scheme
    parts = make(e.presentation, 3, e.default_ray).partition
    if layout == "rows":
        base = parts.base.index()
        rows = parts.rows.copy()
        rows[base] = rows[base][::-1]
        broken = replace(parts, rows=rows)
    else:
        broken = replace(parts, cones=np.zeros_like(parts.cones))  # every pair in class 0
    with pytest.raises(IntegrityError, match="^the labels of the base row are not the suborbits$"):
        scheme_from_partition(broken)


def test_a_partition_without_a_label_source_is_refused():
    e = builtin("gamma")
    parts = build_scheme(e.presentation, 2, e.default_ray).partition
    bare = SuborbitPartition(parts.base, parts.block_of)
    message = "^the partition has no label source: neither rows nor cones$"
    with pytest.raises(IntegrityError, match=message):
        bare.label_row(0)
    for x, y in [(0, 1), (0, 0)]:
        with pytest.raises(IntegrityError, match=message):
            bare.label(x, y)
    with pytest.raises(IntegrityError, match=message):
        bare.path_counts([0], [1], [0], [1])
    with pytest.raises(IntegrityError, match=message):
        scheme_from_partition(bare)


def test_scheme_keeps_no_transversal(monkeypatch):
    made = []

    def recorded(*args):
        tv = orbit_transversal(*args)
        made.append(weakref.ref(tv))
        return tv

    monkeypatch.setattr("selfsim.orbits.orbit_transversal", recorded)
    pres, ray = _declined()
    s = build_scheme(pres, 4, ray)
    gc.collect()
    assert len(made) == 1
    assert made[0]() is None
    assert not hasattr(s, "transversal")
    assert s.label(s.base_index, s.base_index) == 0  # the scheme still reads labels


@pytest.mark.parametrize("key", keys())
def test_scheme_reads_the_partition_array(key):
    for n in range(5 if key.startswith("grigorchuk") else 4):
        s = _scheme(key, n)
        assert not hasattr(s, "block_of")  # the partition's array, not a copy
        least = [int(np.flatnonzero(s.partition.block_of == k)[0]) for k in range(s.rank)]
        assert s.representatives == tuple(least), (key, n)


def _label_readings(pres, s):
    """Everything the library reads off a scheme's labels."""
    size = s.point_count
    xs, ys = np.divmod(np.arange(size * size), size)
    return (
        [[s.label(x, y) for y in range(size)] for x in range(size)],
        s.path_counts(xs, ys, xs % s.rank, ys % s.rank).tolist(),
        [s.label_column(y).tolist() for y in range(size)],
        s.labels.tolist(),
        list(orbital_graph_dot(s)),
        dense_commutant_oracle(s),
        _label_invariance(pres, s, np.random.default_rng(3), 50),
        _scheme_axioms(s, np.random.default_rng(4), 50),
    )


class _TablePartition:
    """A stand-in partition that reads its labels off a full table, and
    refuses the readers named in refused."""

    def __init__(self, parts, table, refused=()):
        self.base, self.block_of = parts.base, parts.block_of
        self._table, self._refused = table, refused

    def _check(self, reader, x):
        if reader in self._refused:
            raise LookupError(f"no label of {x}")

    def label_row(self, x):
        self._check("label_row", x)
        return self._table[x]

    def label(self, x, y):
        self._check("label", x)
        return int(self._table[x, y])

    def path_counts(self, x, y, i, j):
        self._check("path_counts", x)
        return np.array(path_counts(self._table, x, y, i, j), dtype=np.int64)


@pytest.mark.parametrize("key,n", [("gamma", 2), ("grigorchuk", 4)])
def test_a_foreign_label_source_reads_the_same(key, n):
    # The scheme reads labels only through its partition's three readers,
    # label_row, label and path_counts: a stand-in partition that is not a
    # suborbit partition gives the same readings, and one that fails fails
    # them.
    s = _scheme(key, n)
    pres = builtin(key).presentation
    table = s.labels.copy()
    foreign = replace(s, partition=_TablePartition(s.partition, table))
    assert _label_readings(pres, foreign) == _label_readings(pres, s)

    # single labels come through label and recounts through path_counts
    # (the axioms suite reads both), everything else through label_row
    by_pair = ["label", "label_invariance", "scheme_axioms"]
    by_path = ["path_counts", "scheme_axioms"]
    by_row = ["label_column", "labels", "dot", "dense_oracle"]
    for refused, refusing in [({"label"}, by_pair),
                              ({"path_counts"}, by_path),
                              ({"label_row"}, by_row),
                              ({"label", "label_row", "path_counts"},
                               by_pair + by_path + by_row)]:
        failing = replace(s, partition=_TablePartition(s.partition, table, refused))
        readers = {"label": lambda: failing.label(0, 1),
                   "path_counts": lambda: failing.path_counts([0], [1], [0], [1]),
                   "label_column": lambda: failing.label_column(1),
                   "labels": lambda: failing.labels,
                   "dot": lambda: list(orbital_graph_dot(failing)),
                   "dense_oracle": lambda: dense_commutant_oracle(failing),
                   "label_invariance": lambda: _label_invariance(
                       pres, failing, np.random.default_rng(3), 5),
                   "scheme_axioms": lambda: _scheme_axioms(
                       failing, np.random.default_rng(4), 5)}
        for name, read in readers.items():
            if name in refusing:
                with pytest.raises(LookupError):
                    read()
            else:
                read()


def test_build_scheme_holds_one_transversal_table():
    # On an input the cone route declines, the N x N transversal table, 2
    # bytes an entry at N = 512, is the only quadratic allocation: nothing on
    # the scheme path widens it, builds its inverse or a second table beside
    # it.  The allowance covers the suborbit fold's blocks of _BLOCK_ENTRIES
    # int64 labels, 64 KiB each; an int64 table (2 MiB) or a second uint16
    # one (0.5 MiB) does not fit in it.
    pres, ray = _declined()
    size = 2**9
    allowance = 1 << 20
    assert cone_suborbits(pres, 9, ray) is None
    tracemalloc.start()
    try:
        build_scheme(pres, 9, ray)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert orbit_transversal(pres, 9, ray).perms.nbytes == 2 * size * size
    assert peak < 2 * size * size + allowance


def test_the_cone_route_allocates_nothing_quadratic():
    # gupta-sidki level 8 (N = 6561): its transversal table alone would take
    # 86 MB; the route's largest arrays hold a few N entries.
    pres, ray = parse_presentation(source_text("gupta-sidki")), builtin("gupta-sidki").default_ray
    tracemalloc.start()
    try:
        scheme = build_scheme(pres, 8, ray)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scheme.rank == 17
    assert peak < 8 << 20


@pytest.mark.parametrize("key,n", [("grigorchuk", 16), ("gupta-sidki", 10)])
def test_p_is_counted_one_label_row_at_a_time(key, n):
    # Past the route's two digit tables (N entries each here), the count
    # holds one label row and one temporary of N int64 entries.  Holding all
    # r rows at once (r = 17 and 21) takes more than 20 such arrays.
    e = builtin(key)
    parts = cone_suborbits(e.presentation, n, e.default_ray)
    size = len(parts.block_of)
    tracemalloc.start()
    try:
        scheme_from_partition(parts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * size


@pytest.mark.parametrize("key", keys())
def test_cone_route_matches_the_fold(key):
    # The digit labels and the transversal table give the same scheme, and
    # the same label rows where every row is compared.
    pres, ray = builtin(key).presentation, builtin(key).default_ray
    for n in range(11 if pres.degree == 2 else 8):
        assert (n == 0) == (cone_suborbits(pres, n, ray) is None), n
        route, fold = build_scheme(pres, n, ray), fold_scheme(pres, n, ray)
        assert route.partition == fold.partition, n
        assert route.representatives == fold.representatives, n
        assert route.pairing == fold.pairing, n
        assert np.array_equal(route.p, fold.p), n
        if n <= 5:
            assert np.array_equal(route.labels, fold.labels), n


def test_p_past_physical_memory_exits_two(capsys, monkeypatch, tmp_path):
    # Level 7 of this input goes through the fold (a 9.6 MB table) to rank
    # 366, whose p would take 8 r^3 bytes: refused before p is made.
    monkeypatch.setattr("selfsim.orbits._physical_memory", lambda: 256 << 20)
    path = tmp_path / "p.txt"
    path.write_text(FINER_THAN_CONES)
    tracemalloc.start()
    try:
        code = main(["decompose", "--file", str(path), "--ray", "3", "--level", "7", "--json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert json.loads(out.err) == {
        "error": "SizeCapError",
        "message": f"rank 366 needs {8 * 366**3} bytes for its intersection numbers p, "
                   f"more than half of the {256 << 20} bytes of physical memory"}
    assert peak < 64 << 20


def test_json_doc_shape():
    s = _scheme("grigorchuk", 2)
    doc = scheme_json_doc(s.valencies, s.pairing, s.p)
    assert set(doc) == {"rank", "valencies", "pairing", "commutative", "p"}
    assert doc["rank"] == 3
    assert doc["valencies"] == [1, 1, 2]
    assert doc["commutative"] is True
    p = np.asarray(doc["p"])
    assert p.shape == (3, 3, 3)
    assert p.dtype.kind == "i"
    # rebuilt from its own JSON, as the cache revalidates an entry
    text = cache.encode(doc)
    stored = json.loads(text)
    assert stored["p"] == s.p.tolist()
    rebuilt = scheme_json_doc(*(np.asarray(stored[key], dtype=np.int64)
                                for key in ("valencies", "pairing", "p")))
    assert cache.encode(rebuilt) == text
