"""The cone route's per-presentation memo never changes an answer.

``orbits.cone_certificate`` keeps what its checks learn of a presentation:
G_1's letter tables, check 2's verdict per letter and check 3's per exact
base word.  Here one presentation answers many levels in a shuffled order,
and each answer is held against the same call on a presentation parsed for
that call alone.  Every presentation is parsed from its text, never taken
from ``catalog.builtin``, whose presentations live as long as the process,
so that no memo warmed by another test can hide a fault.
"""

import gc
import random

import numpy as np
import pytest
from families import (ADDING_MACHINE, CONE_CASES, FINER_THAN_CONES, NON_COMMUTATIVE,
                      SHIFTED_BASE)

from selfsim import orbits
from selfsim.catalog import keys, source_text
from selfsim.errors import SizeCapError
from selfsim.orbits import _cone_facts, cone_certificate
from selfsim.tree import all_d_ray, parse_ray
from selfsim.wreath import parse_presentation

INTRANSITIVE = "degree: 3\ngen a = perm (1 2) | e, a, e\n"


def _cases():
    """(name, text, ray text, top level): the catalog, the five fixed cone
    cases, and inputs declined at check 1 (INTRANSITIVE), check 2
    (FINER_THAN_CONES, NON_COMMUTATIVE) and check 3 (ADDING_MACHINE at
    every level from 2, SHIFTED_BASE from level 4 on)."""
    for key in keys():
        text = source_text(key)
        degree = parse_presentation(text).degree
        yield key, text, "dinf", 10 if degree == 2 else 7
    for name, (text, ray) in CONE_CASES.items():
        yield name, text, ray, 7
    yield "finer-than-cones", FINER_THAN_CONES, "3", 7
    yield "non-commutative", NON_COMMUTATIVE, "2", 7
    yield "adding-machine", ADDING_MACHINE, "dinf", 7
    yield "shifted-base", SHIFTED_BASE, "13", 7
    yield "intransitive", INTRANSITIVE, "dinf", 4


def _same(got, want) -> bool:
    return (got is None and want is None) or (
        got is not None and want is not None and np.array_equal(got, want)
        and got.dtype == want.dtype)


def test_call_order_never_changes_a_certificate():
    cases = {name: (text, parse_presentation(text), top)
             for name, text, _, top in _cases()}
    rays = {name: ray for name, _, ray, _ in _cases()}
    calls = [(name, n) for name, (_, _, top) in cases.items() for n in range(top + 1)]
    random.Random(2005).shuffle(calls)
    certified = {name: [] for name in cases}
    for name, n in calls:
        text, pres, _ = cases[name]
        ray = parse_ray(rays[name], pres.degree)
        got = cone_certificate(pres, n, ray)
        want = cone_certificate(parse_presentation(text), n, ray)
        assert _same(got, want), (name, n)
        if got is not None:
            certified[name].append(n)
    # every check both passes and fails somewhere in the family
    declined_from = {"finer-than-cones": 2, "non-commutative": 2, "adding-machine": 2,
                     "shifted-base": 4, "intransitive": 1}
    for name, (_, _, top) in cases.items():
        assert sorted(certified[name]) == list(range(1, declined_from.get(name, top + 1))), name


def test_the_memo_is_per_presentation_and_dies_with_it():
    text = source_text("grigorchuk")
    pres, twin = parse_presentation(text), parse_presentation(text)
    assert pres == twin  # equal values, separate memos
    assert cone_certificate(pres, 4, all_d_ray(2)) is not None
    assert _cone_facts(pres) is _cone_facts(pres)
    assert _cone_facts(pres) is not _cone_facts(twin)
    key = id(pres)
    assert key in orbits._FACTS
    del pres
    gc.collect()
    assert key not in orbits._FACTS


def test_the_returned_tables_are_read_only():
    pres = parse_presentation(source_text("gupta-sidki"))
    table = cone_certificate(pres, 3, all_d_ray(3))
    for array in (table, _cone_facts(pres).least):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 5
    assert _same(cone_certificate(pres, 3, all_d_ray(3)),
                 cone_certificate(parse_presentation(source_text("gupta-sidki")), 3,
                                  all_d_ray(3)))


@pytest.mark.parametrize("key", ["grigorchuk", "gupta-sidki"])
def test_the_cap_and_the_ray_are_checked_before_the_memo(key):
    pres = parse_presentation(source_text(key))
    d = pres.degree
    for k in range(1, 5):
        assert cone_certificate(pres, k, all_d_ray(d), cap=d**k) is not None
        with pytest.raises(SizeCapError):
            cone_certificate(pres, k, all_d_ray(d), cap=d**(k - 1))
        with pytest.raises(ValueError, match="ray degree"):
            cone_certificate(pres, k, all_d_ray(d + 1))


def test_the_memo_holds_nothing_of_size_n():
    pres = parse_presentation(source_text("grigorchuk"))
    assert cone_certificate(pres, 16, all_d_ray(2)) is not None
    facts = _cone_facts(pres)
    for value in vars(facts).values():
        if isinstance(value, np.ndarray):
            assert value.size <= pres.degree**2
        else:
            assert all(type(v) is bool for v in value.values())
    assert set(facts.replicating) == {2}
    assert set(facts.whole) == {(2,) * 16}
