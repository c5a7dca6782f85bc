from __future__ import annotations

import json
import random
from itertools import product as iproduct

import pytest

from shw import catalog
from shw.algebra import (
    FiniteAlgebra,
    expand,
    from_json_dict,
    lattice_from_covers,
    loads,
    product,
    subalgebra,
    to_json_dict,
    validate_lattice,
)
from shw.equations import compile_statement, satisfies, truth
from shw.errors import InputError, SignatureError, StructuralError
from shw.terms import Const, PrimeStar, Var, eval_term, parse_identity, parse_term


def chain3(arrow=None, neg=None, name="c3"):
    return FiniteAlgebra(
        name, ("0", "a", "1"),
        join=((0, 1, 2), (1, 1, 2), (2, 2, 2)),
        meet=((0, 0, 0), (0, 1, 1), (0, 1, 2)),
        arrow=arrow, neg=neg, bot=0, top=2,
    )


def two(arrow=((1, 1), (0, 1))):
    return FiniteAlgebra("two", ("0", "1"),
                         join=((0, 1), (1, 1)), meet=((0, 0), (0, 1)),
                         arrow=arrow, neg=None, bot=0, top=1)


def test_structural_checks():
    with pytest.raises(StructuralError):
        FiniteAlgebra("bad", ("0", "0"), ((0,),), ((0,),), None, None, 0, 0)
    with pytest.raises(StructuralError):
        FiniteAlgebra("bad", ("0", "1"), ((0, 5), (1, 1)), ((0, 0), (0, 1)),
                      None, None, 0, 1)
    with pytest.raises(StructuralError):
        FiniteAlgebra("bad", ("0", "1"), ((0, 1), (1, 1)), ((0, 0),),
                      None, None, 0, 1)
    with pytest.raises(StructuralError):
        from_json_dict({"name": "x", "elements": ["0"]})


def test_validate_lattice_accepts_chain():
    assert validate_lattice(chain3()).ok


def test_validate_lattice_reports_law_failures_with_witness():
    broken = FiniteAlgebra("broken", ("0", "1"),
                           join=((0, 0), (0, 1)), meet=((0, 0), (0, 1)),
                           arrow=None, neg=None, bot=0, top=1)
    report = validate_lattice(broken)
    assert not report.ok
    laws = {f.law: f.witness for f in report.failures}
    assert "absorption-meet" in laws
    # first witness in lexicographic assignment order
    assert laws["absorption-meet"] == {"x": "1", "y": "0"}
    assert laws["bottom-unit"] == {"x": "1"}


def _reference_lattice_laws(a: FiniteAlgebra):
    """The lattice laws as (law name, arity, predicate) over the tables,
    the loop that checked them before they became a statement suite."""
    j, m = a.join, a.meet
    return [
        ("join-commutative", 2, lambda x, y: j[x][y] == j[y][x]),
        ("meet-commutative", 2, lambda x, y: m[x][y] == m[y][x]),
        ("join-associative", 3, lambda x, y, z: j[j[x][y]][z] == j[x][j[y][z]]),
        ("meet-associative", 3, lambda x, y, z: m[m[x][y]][z] == m[x][m[y][z]]),
        ("join-idempotent", 1, lambda x: j[x][x] == x),
        ("meet-idempotent", 1, lambda x: m[x][x] == x),
        ("absorption-join", 2, lambda x, y: j[x][m[x][y]] == x),
        ("absorption-meet", 2, lambda x, y: m[x][j[x][y]] == x),
        ("bottom-unit", 1, lambda x: j[x][a.bot] == x),
        ("top-unit", 1, lambda x: m[x][a.top] == x),
        ("meet-distributes", 3, lambda x, y, z: m[x][j[y][z]] == j[m[x][y]][m[x][z]]),
        ("join-distributes", 3, lambda x, y, z: j[x][m[y][z]] == m[j[x][y]][j[x][z]]),
    ]


def _reference_failures(a: FiniteAlgebra) -> list:
    """(law, witness items) per failing law, the first witness in
    lexicographic assignment order."""
    failures = []
    for law, arity, pred in _reference_lattice_laws(a):
        for args in iproduct(range(a.size), repeat=arity):
            if not pred(*args):
                failures.append((law, [("xyz"[i], a.elements[v]) for i, v in enumerate(args)]))
                break
    return failures


def _failures(a: FiniteAlgebra) -> list:
    return [(f.law, list(f.witness.items())) for f in validate_lattice(a).failures]


def _random_table(rng: random.Random, n: int):
    """A random n x n table, or half the time a chain's join or meet with
    one entry changed, which fails fewer laws and at later witnesses."""
    if rng.random() < 0.5:
        return [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    pick = rng.choice((max, min))
    table = [[pick(x, y) for y in range(n)] for x in range(n)]
    table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return table


def test_validate_lattice_matches_the_law_loop():
    for key in catalog.keys():
        a = catalog.get(key)
        assert _failures(a) == _reference_failures(a), key
    rng = random.Random(20261019)
    failures = 0
    for i in range(3000):
        n = rng.randint(1, 5)
        a = FiniteAlgebra(f"r{i}", tuple(map(str, range(n))),
                          tuple(map(tuple, _random_table(rng, n))),
                          tuple(map(tuple, _random_table(rng, n))),
                          None, None, rng.randrange(n), rng.randrange(n))
        want = _reference_failures(a)
        assert _failures(a) == want, (a.join, a.meet, a.bot, a.top)
        failures += len(want)
    assert failures > 10_000  # most laws fail somewhere, not all everywhere


def test_leq_and_constants():
    a = chain3()
    leq = compile_statement(parse_identity("x <= y"))
    ops = (a.join, a.meet, a.arrow, a.neg, a.bot, a.top)
    for x, y, want in ((0, 1, 1), (1, 2, 1), (2, 1, 0)):
        assert truth(leq, ops, {"x": x, "y": y}) == want
    assert a.index("a") == 1
    assert a.elements[eval_term(a, Const(1), {})] == "1"
    assert a.elements[eval_term(a, Const(0), {})] == "0"
    with pytest.raises(InputError):
        a.index("q")


def _value(a: FiniteAlgebra, src: str, x: int) -> int:
    return eval_term(a, parse_term(src), {"x": x})


def test_derived_operations():
    # arrow rows for 0, a, 1 giving a Heyting chain
    a = chain3(arrow=((2, 2, 2), (0, 2, 2), (0, 1, 2)), neg=(2, 1, 0))
    assert [_value(a, "x*", x) for x in range(3)] == [2, 0, 0]
    assert _value(a, "x''", 1) == 1
    assert _value(a, "x+", 1) == a.neg[a.arrow[a.neg[1]][a.bot]] == 2
    assert eval_term(a, PrimeStar(Var("x"), 2), {"x": 1}) == _value(a, "x'*'*", 1) == 0
    # the checked statements read the derived operations the same way
    assert satisfies(a, parse_identity("x+ = ((x')*)'")).holds
    assert satisfies(a, parse_identity("x'*'* = ((x' -> 0)' -> 0)")).holds


def test_derived_operations_require_signature():
    bare = chain3()
    with pytest.raises(SignatureError, match="c3: no arrow operation"):
        _value(bare, "x*", 0)
    arrow_only = chain3(arrow=((2, 2, 2), (0, 2, 2), (0, 1, 2)))
    for src in ("x'", "x+", "x'*"):
        with pytest.raises(SignatureError, match="c3: no negation"):
            _value(arrow_only, src, 0)


def test_eval_term_join_star_plus():
    a = chain3(arrow=((2, 2, 2), (0, 2, 2), (0, 1, 2)), neg=(2, 1, 0))
    assert eval_term(a, parse_term("x v y"), {"x": 1, "y": 2}) == 2
    assert _value(a, "x*", 1) == 0
    assert _value(a, "x+", 0) == 2  # (0')*' = (1*)' = 0' = 1


def test_expand_schemes():
    base = chain3(arrow=((2, 2, 2), (0, 2, 2), (0, 1, 2)), name="L1")
    dm = expand(base, "dm")
    assert dm.name == "L1dm"
    assert dm.neg == (2, 1, 0)
    assert base.neg is None  # input untouched
    dp = expand(base, "dp")
    assert dp.neg == (2, 2, 0)
    assert validate_lattice(dm).failures == validate_lattice(base).failures


def test_expand_errors():
    base = chain3(arrow=((2, 2, 2), (0, 2, 2), (0, 1, 2)))
    with pytest.raises(InputError):
        expand(base, "e")  # scheme does not cover element a
    with pytest.raises(InputError):
        expand(base, "nonesuch")
    with pytest.raises(InputError):
        expand(expand(base, "dm"), "dm")


def test_lattice_from_covers_diamond():
    d = lattice_from_covers("M2", ("0", "a", "b", "1"),
                            [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    assert validate_lattice(d).ok
    assert d.join[d.index("a")][d.index("b")] == d.index("1")
    assert d.meet[d.index("a")][d.index("b")] == d.index("0")
    assert (d.bot, d.top) == (0, 3)


def test_lattice_from_covers_rejects_non_lattice():
    # two maximal elements: no top, no unique join
    with pytest.raises(InputError):
        lattice_from_covers("vee", ("0", "a", "b"), [("0", "a"), ("0", "b")])


def test_product_componentwise():
    t = two()
    p = product(t, t)
    assert p.size == 4
    assert validate_lattice(p).ok
    i = p.elements.index("(1,0)")
    j = p.elements.index("(0,1)")
    assert p.join[i][j] == p.top and p.meet[i][j] == p.bot
    assert p.arrow[i][j] == p.elements.index("(0,1)")


def test_product_signature_mismatch():
    with pytest.raises(SignatureError):
        product(two(), chain3())


def test_subalgebra_induced():
    a = chain3(arrow=((2, 2, 2), (0, 2, 2), (0, 1, 2)), neg=(2, 1, 0))
    s = subalgebra(a, [0, 2])
    assert s.elements == ("0", "1")
    assert s.arrow == ((1, 1), (0, 1))
    assert s.neg == (1, 0)
    with pytest.raises(InputError):
        subalgebra(a, [0, 1])  # not closed: a -> a = 1 missing
    with pytest.raises(InputError):
        subalgebra(a, [1, 2])  # constants missing


def test_json_roundtrip():
    a = chain3(arrow=((2, 2, 2), (0, 2, 2), (0, 1, 2)), neg=(2, 1, 0))
    assert loads(json.dumps(to_json_dict(a))) == a
    bare = chain3()
    d = to_json_dict(bare)
    assert "arrow" not in d and "neg" not in d
    assert from_json_dict(d) == bare
    with pytest.raises(StructuralError):
        loads("{not json")


@pytest.mark.parametrize("field, value", [
    ("join", [[0, 1], [1.9, 1]]), ("meet", [[0, 0], [0, True]]),
    ("bot", "0"), ("top", 1.0), ("bot", False), ("neg", [1, "0"]),
    ("arrow", [[1, 1], [0, None]]), ("elements", "01"), ("elements", [0, 1]),
    ("elements", {"0": 0, "1": 1}), ("name", 5), ("name", None)])
def test_from_json_dict_wants_integers_and_string_labels(field, value):
    d = to_json_dict(two())
    d["neg"] = [1, 0]
    assert from_json_dict(d).neg == (1, 0)
    d[field] = value
    with pytest.raises(StructuralError, match="^malformed algebra object: "):
        from_json_dict(d)
    with pytest.raises(StructuralError, match="^malformed algebra object: "):
        loads(json.dumps(d))
