from __future__ import annotations

import random
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest

from shw import catalog, varieties
from shw.algebra import product, subalgebra
from shw.errors import InputError
from shw.structure import all_subuniverses, automorphisms, find_morphisms
from shw.varieties import (
    AMBIENTS,
    Ambient,
    ClosedSimpleSet,
    ShapeFactor,
    closure,
    decompose,
    down_set_count,
    embeddable,
    embeddings,
    get_ambient,
    in_variety,
    is_closure,
    join,
    meet,
    subvariety_count,
    verify_decomposition,
)


def test_embeddable_matches_block_structure():
    # S1 members contain a copy of 2e, S2 members one of 2bar with neg,
    # S3 members have no proper subalgebras at all
    for k in catalog.family("S1"):
        assert embeddable("2e", k) and not embeddable("2bare", k)
    for k in catalog.family("S2"):
        assert embeddable("2bare", k) and not embeddable("2e", k)
    for k in catalog.family("S3"):
        assert not embeddable("2e", k) and not embeddable("2bare", k)
    assert not embeddable("L1dm", "L2dm")
    assert embeddable("D2", "D2")


def test_self_embeddings_are_the_automorphisms():
    for k in catalog.family("all-simples"):
        assert embeddings(k, k) == tuple(automorphisms(catalog.get(k))), k


def test_embeddings_into_a_subalgebra_extend_to_the_product():
    # why the amalgam oracle searches each product and not its subalgebras:
    # an embedding into a subalgebra, composed with the inclusion, is
    # already one of the embeddings into the product
    members = closure(["D1", "D2", "D3"], "rdqdstsh1").members()
    composed = 0
    for keys in [(k,) for k in members] + list(combinations_with_replacement(members, 2)):
        big = catalog.get(keys[0]) if len(keys) == 1 else product(*map(catalog.get, keys))
        for s in all_subuniverses(big)[:-1]:
            inclusion = sorted(s)
            sub = subalgebra(big, s)
            for left in members:
                into_big = {e.mapping for e in embeddings(left, *keys)}
                embs = [f for f in find_morphisms(catalog.get(left), sub)
                        if f.is_injective]
                for f in embs:
                    assert tuple(inclusion[v] for v in f.mapping) in into_big, \
                        (left, keys, inclusion)
                    composed += 1
    assert composed == 29


def test_in_variety():
    assert in_variety("2e", ["L1dm"])
    assert in_variety("2bare", ["D1"])
    assert not in_variety("L1dm", ["L2dm", "D1"])
    assert not in_variety("2e", ["L5dm"])
    with pytest.raises(InputError):
        in_variety("double-diamond", ["L1dm"])  # not simple: not even an algebra


def test_closure_and_membership():
    v = closure(["D1", "D2", "D3"], "rdqdstsh1")
    assert set(v.members()) == {"2e", "2bare", "D1", "D2", "D3"}
    assert "2e" in v and "L1dm" not in v
    assert len(v) == 5
    assert is_closure(v.members(), "rdqdstsh1")
    assert not is_closure(["L1dm"], "rdqdstsh1")  # misses 2e


def test_closure_rejects_foreign_keys():
    with pytest.raises(InputError):
        closure(["L1dp"], "rdmsh1")


def test_join_meet():
    amb = "rdmsh1"
    v = closure(["L1dm"], amb)
    w = closure(["L9dm"], amb)
    u = join(v, w)
    assert set(u.members()) == {"2e", "L1dm", "2bare", "L9dm"}
    assert is_closure(u.members(), amb)
    assert meet(v, w).bits == 0
    assert meet(u, v) == v
    with pytest.raises(InputError):
        join(v, closure(["L1dp"], "rdpcsh1"))


@pytest.mark.parametrize("name,count", [
    ("rdpcsh1", 1360),
    ("rdmsh1", 9504),
    ("rdqdstsh1", 8667648),
])
def test_subvariety_counts(name, count):
    assert subvariety_count(name) == count


def _bitset_scan(below: list[int]) -> int:
    """Reference count: test all 2^n bitsets, 2^22 at a time, for closure
    under "j present implies every i in below[j] present"."""
    n = len(below)
    grouped: dict[int, int] = {}  # required mask -> mask of keys requiring it
    for j, req in enumerate(below):
        if req:
            grouped[req] = grouped.get(req, 0) | 1 << j
    total = 0
    chunk = 1 << min(22, n)
    dtype = np.uint32 if n <= 32 else np.uint64
    for base in range(0, 1 << n, chunk):
        ids = np.arange(base, base + chunk, dtype=dtype)
        ok = np.ones(chunk, dtype=bool)
        for req, who in grouped.items():
            triggered = (ids & dtype(who)) != 0
            satisfied = (ids & dtype(req)) == dtype(req)
            ok &= ~triggered | satisfied
        total += int(ok.sum())
    return total


@pytest.mark.parametrize("name", AMBIENTS)
def test_count_matches_bitset_scan(name):
    keys = get_ambient(name).keys
    below = [sum(1 << i for i, ki in enumerate(keys) if i != j and embeddable(ki, kj))
             for j, kj in enumerate(keys)]
    assert subvariety_count(name) == _bitset_scan(below)


def _random_relation(rng: random.Random) -> list[int]:
    """A relation on up to 14 elements, as below-masks: blocks with no
    links between them, random (mostly non-transitive) links inside each,
    and sometimes mutual pairs and self-loops."""
    n = rng.randint(0, 14)
    perm = list(range(n))
    rng.shuffle(perm)
    below = [0] * n
    start = 0
    while start < n:
        block = perm[start:start + rng.randint(1, n)]
        start += len(block)
        density = rng.choice([0.05, 0.15, 0.3, 0.6])
        for a in block:
            for b in block:
                if a != b and rng.random() < density:
                    below[a] |= 1 << b
        if len(block) > 1 and rng.random() < 0.4:
            a, b = rng.sample(block, 2)
            below[a] |= 1 << b
            below[b] |= 1 << a
    if n and rng.random() < 0.2:
        j = rng.randrange(n)
        below[j] |= 1 << j
    return below


def _component_count(below: list[int]) -> int:
    n = len(below)
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            a = root[a]
        return a

    for a in range(n):
        for b in range(n):
            if below[a] >> b & 1:
                root[find(a)] = find(b)
    return len({find(a) for a in range(n)})


def test_down_set_count_matches_bitset_scan_on_random_relations():
    rng = random.Random(20261018)
    cycles = intransitive = split = 0
    for _ in range(200):
        below = _random_relation(rng)
        n = len(below)
        cycles += any(below[a] >> b & 1 and below[b] >> a & 1
                      for a in range(n) for b in range(a))
        intransitive += any(below[a] >> b & 1 and below[b] & ~below[a]
                            for a in range(n) for b in range(n))
        split += _component_count(below) > 1
        assert down_set_count(below) == _bitset_scan(below), below
    assert cycles > 20 and intransitive > 100 and split > 100


def test_down_set_count_closed_forms_beyond_the_scan():
    assert down_set_count([0] * 60) == 1 << 60                        # antichain
    assert down_set_count([0] + [1 << i for i in range(59)]) == 61    # chain of covers
    assert down_set_count([1 << (j + 1) for j in range(59)] + [0]) == 61  # top down
    for k in (1, 7, 40):
        assert down_set_count([0] + [1] * k) == (1 << k) + 1          # root below k
    assert down_set_count([]) == 1


def test_subvariety_count_memory_stays_small():
    keys = get_ambient("rdqdstsh1").keys
    for a in keys:
        for b in keys:
            embeddable(a, b)
    tracemalloc.start()
    try:
        assert subvariety_count("rdqdstsh1") == 8667648
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_counts_match_decomposition_formula():
    for name in AMBIENTS:
        rep = decompose(name)
        assert rep.ok
        assert rep.cardinality() == subvariety_count(name)


def test_decompose_shapes():
    rep = decompose("rdqdstsh1")
    shapes = sorted((f.kind, f.atoms) for f in rep.factors)
    assert shapes == [("1+B", 5), ("1+B", 9), ("B", 9)]
    groups = dict(rep.groups)
    assert set(groups["2e"]) == set(catalog.family("S1"))
    assert set(groups["2bare"]) == set(catalog.family("S2"))
    assert set(rep.free) == set(catalog.family("S3"))

    rep15 = decompose("rdmsh1")
    assert sorted((f.kind, f.atoms) for f in rep15.factors) == [
        ("1+B", 3), ("1+B", 5), ("B", 5)]
    rep12 = decompose("rdpcsh1")
    assert sorted((f.kind, f.atoms) for f in rep12.factors) == [
        ("1+B", 2), ("1+B", 4), ("B", 4)]


@pytest.mark.parametrize("name,pairs,detail", [
    ("two-cycle", {("L6dm", "L7dm"), ("L7dm", "L6dm")}, "mutual embedding involving L6dm"),
    ("chain", {("L5dm", "L6dm"), ("L6dm", "L7dm")}, "L7dm sits above ['L6dm'], not a single root"),
    ("two-roots", {("L6dm", "L8dm"), ("L5dm", "L8dm")},
     "L8dm sits above ['L5dm', 'L6dm'], not a single root"),
])
def test_decompose_failure_names_the_first_offending_key(monkeypatch, name, pairs, detail):
    monkeypatch.setattr(varieties, "embeddable", lambda s, t: s == t or (s, t) in pairs)
    monkeypatch.setitem(varieties.AMBIENTS, f"test-{name}", Ambient(f"test-{name}", "S3"))
    rep = decompose(f"test-{name}")
    assert (rep.ok, rep.detail) == (False, detail)


def test_verify_decomposition():
    good = [ShapeFactor("1+B", 9), ShapeFactor("1+B", 5), ShapeFactor("B", 9)]
    rep = verify_decomposition("rdqdstsh1", good, expected_count=8667648)
    assert rep.ok
    bad = verify_decomposition("rdqdstsh1", [ShapeFactor("B", 25)])
    assert not bad.ok and "claimed" in bad.detail
    wrong_count = verify_decomposition("rdqdstsh1", good, expected_count=8667649)
    assert not wrong_count.ok


def test_closed_set_small_ambient():
    amb = get_ambient("rdpcsh1")
    full = ClosedSimpleSet(amb.name, (1 << len(amb.keys)) - 1)
    assert set(full.members()) == set(amb.keys)
    assert is_closure(full.members(), amb.name)
