from __future__ import annotations

import random

import pytest

from shw.algebra import FiniteAlgebra
from shw.equations import compile_statement, truth
from shw.errors import InputError, ParseError, SignatureError
from shw.terms import (
    Arrow,
    Atom,
    Const,
    Identity,
    Join,
    Meet,
    Neg,
    Plus,
    PrimeStar,
    QuasiIdentity,
    Star,
    Var,
    desugar,
    eval_term,
    free_vars,
    level_identity,
    normalize,
    parse_identity,
    parse_quasi,
    parse_statement,
    parse_term,
    pretty,
    pretty_identity,
    pretty_quasi,
)


def heyting3():
    return FiniteAlgebra(
        "h3", ("0", "a", "1"),
        join=((0, 1, 2), (1, 1, 2), (2, 2, 2)),
        meet=((0, 0, 0), (0, 1, 1), (0, 1, 2)),
        arrow=((2, 2, 2), (0, 2, 2), (0, 1, 2)),
        neg=(2, 1, 0), bot=0, top=2,
    )


def test_parse_precedence():
    t = parse_term("x -> y v z ^ w")
    assert t == Arrow(Var("x"), Join(Var("y"), Meet(Var("z"), Var("w"))))
    assert parse_term("x v y ^ z") == Join(Var("x"), Meet(Var("y"), Var("z")))
    assert parse_term("x ^ y v z") == Join(Meet(Var("x"), Var("y")), Var("z"))


def test_parse_arrow_right_associative():
    assert parse_term("x -> y -> z") == Arrow(Var("x"), Arrow(Var("y"), Var("z")))
    assert parse_term("(x -> y) -> z") == Arrow(Arrow(Var("x"), Var("y")), Var("z"))


def test_parse_postfix_binds_tightest():
    assert parse_term("x ^ y'") == Meet(Var("x"), Neg(Var("y")))
    assert parse_term("(x v y)*") == Star(Join(Var("x"), Var("y")))
    assert parse_term("x'*'") == Neg(Star(Neg(Var("x"))))
    assert parse_term("x+") == Plus(Var("x"))


def test_parse_constants_and_identifiers():
    assert parse_term("0 -> 1") == Arrow(Const(0), Const(1))
    assert parse_term("veto") == Var("veto")  # 'v' only reserved standalone
    assert parse_term("x_1 v y2") == Join(Var("x_1"), Var("y2"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_term("x v")
    assert e.value.position == 3
    with pytest.raises(ParseError):
        parse_term("x $ y")
    with pytest.raises(ParseError):
        parse_term("(x v y")
    with pytest.raises(ParseError):
        parse_term("x y")
    with pytest.raises(ParseError):
        parse_identity("x = y = z")
    with pytest.raises(ParseError):
        parse_identity("x != y")  # != only allowed in quasi premises


def test_parse_identity_and_leq_desugar():
    ident = parse_identity("x ^ y <= x")
    assert ident.kind == "leq"
    assert (ident.lhs, ident.rhs) == (Meet(Var("x"), Var("y")), Var("x"))
    # s <= t is sugar for s ^ t = s: both hold under the same assignments
    h = heyting3()
    ops = (h.join, h.meet, h.arrow, h.neg, h.bot, h.top)
    for src in ("x <= y", "y <= x", "x' <= x*", "x -> y <= y"):
        leq = parse_identity(src)
        eq = Identity("eq", Meet(leq.lhs, leq.rhs), leq.lhs)
        for x in range(3):
            for y in range(3):
                env = {"x": x, "y": y}
                assert (truth(compile_statement(leq), ops, env)
                        == truth(compile_statement(eq), ops, env)), (src, env)


def test_parse_quasi():
    q = parse_quasi("x != 1; x <= y => x <= x'")
    assert q.premises == (
        Atom("neq", Var("x"), Const(1)),
        Atom("leq", Var("x"), Var("y")),
    )
    assert q.conclusion == Atom("leq", Var("x"), Neg(Var("x")))
    assert isinstance(parse_statement("x = y => x <= y"), QuasiIdentity)
    assert isinstance(parse_statement("x = y"), Identity)
    with pytest.raises(InputError):
        QuasiIdentity((), Atom("neq", Var("x"), Var("y")))


def test_free_vars():
    assert free_vars(parse_term("x -> (y v 0)'")) == {"x", "y"}
    assert free_vars(Const(1)) == frozenset()


def test_eval_term():
    h = heyting3()
    env = {"x": 1, "y": 0}
    assert eval_term(h, parse_term("x -> y"), env) == 0
    assert eval_term(h, parse_term("x*"), env) == 0
    assert eval_term(h, parse_term("x'"), env) == 1
    assert eval_term(h, parse_term("x+"), env) == h.neg[h.arrow[h.neg[1]][h.bot]]
    assert eval_term(h, Const(1), {}) == 2
    with pytest.raises(InputError):
        eval_term(h, Var("q"), env)


def test_eval_requires_signature():
    bare = FiniteAlgebra("b2", ("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)),
                         None, None, 0, 1)
    with pytest.raises(SignatureError):
        eval_term(bare, parse_term("x -> y"), {"x": 0, "y": 1})
    with pytest.raises(SignatureError):
        eval_term(bare, parse_term("x'"), {"x": 0})


def test_desugar_soundness_on_all_assignments():
    h = heyting3()
    for src in ("x*", "x+", "x'* v y", "(x ^ y)* -> x+"):
        t = parse_term(src)
        d = desugar(t)
        for x in range(3):
            for y in range(3):
                env = {"x": x, "y": y}
                assert eval_term(h, t, env) == eval_term(h, d, env)


def test_primestar_normalize_and_level_identities():
    t = PrimeStar(Var("x"), 2)
    assert normalize(t) == Star(Neg(Star(Neg(Var("x")))))
    assert pretty(t) == "x'*'*"
    l2 = level_identity(2)
    assert pretty_identity(l2) == "(x ^ x'*)'*'* = (x ^ x'*)'*"
    l1 = level_identity(1)
    assert l1.rhs == Meet(Var("x"), Star(Neg(Var("x"))))
    with pytest.raises(InputError):
        level_identity(0)
    with pytest.raises(InputError):
        PrimeStar(Var("x"), 0)


def test_pretty_minimal_parentheses():
    cases = {
        "x v y v z": Join(Join(Var("x"), Var("y")), Var("z")),
        "x v (y v z)": Join(Var("x"), Join(Var("y"), Var("z"))),
        "(x -> y) -> z": Arrow(Arrow(Var("x"), Var("y")), Var("z")),
        "x -> y -> z": Arrow(Var("x"), Arrow(Var("y"), Var("z"))),
        "(x v y)'": Neg(Join(Var("x"), Var("y"))),
        "x ^ (y v z)": Meet(Var("x"), Join(Var("y"), Var("z"))),
    }
    for want, term in cases.items():
        assert pretty(term) == want
        assert parse_term(pretty(term)) == term


def random_term(rng: random.Random, depth: int) -> "object":
    if depth == 0:
        return rng.choice([Var("x"), Var("y"), Var("z"), Const(0), Const(1)])
    kind = rng.randrange(8)
    if kind < 3:
        ctor = (Join, Meet, Arrow)[kind]
        return ctor(random_term(rng, depth - 1), random_term(rng, depth - 1))
    if kind < 6:
        ctor = (Neg, Star, Plus)[kind - 3]
        return ctor(random_term(rng, depth - 1))
    if kind == 6:
        return PrimeStar(random_term(rng, depth - 1), rng.randint(1, 3))
    return random_term(rng, depth - 1)


def test_roundtrip_1000_random_terms():
    rng = random.Random(20250826)
    h = heyting3()
    for _ in range(1000):
        t = random_term(rng, rng.randint(1, 5))
        back = parse_term(pretty(t))
        assert back == normalize(t)
        # desugaring to the core signature never changes the value
        env = {v: rng.randrange(3) for v in ("x", "y", "z")}
        assert eval_term(h, t, env) == eval_term(h, desugar(t), env)


def test_pretty_quasi_roundtrip():
    q = parse_quasi("x* != 0 => x v x* = 1")
    assert pretty_quasi(q) == "x* != 0 => x v x* = 1"
