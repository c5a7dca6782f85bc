from __future__ import annotations

import random
from itertools import product

import numpy as np
import pytest

from shw import bases, catalog, equations
from shw.algebra import FiniteAlgebra
from shw.equations import (
    SUITES,
    Suite,
    compile_statement,
    get_suite,
    grid_truth,
    holds_at,
    parse_ids_text,
    run_lemma_suite,
    satisfies,
    satisfies_suite,
    stack_holds,
    suite_names,
    truth,
)
from shw.errors import InputError, SignatureError
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
    eval_term,
    parse_identity,
    parse_quasi,
    parse_statement,
)
from test_modelsearch import _random_statement, _reference_truth
from test_terms import random_term


def test_satisfies_reports_first_lexicographic_witness():
    # SH4 fails on L5dm; scanning x then y in element order hits (0, a) first
    res = satisfies(catalog.get("L5dm"), parse_identity("(x ^ y) -> y = 1"))
    assert not res.holds
    assert res.witness == {"x": 0, "y": 1}
    assert res.witness_labels(catalog.get("L5dm")) == {"x": "0", "y": "a"}


def test_satisfies_commutative_on_symmetric_table():
    assert satisfies(catalog.get("L10dm"), parse_identity("x -> y = y -> x")).holds
    assert satisfies(catalog.get("D1"), parse_identity("x -> y = y -> x")).holds
    assert not satisfies(catalog.get("L9dm"), parse_identity("x -> y = y -> x")).holds


def test_satisfies_leq_identity():
    assert satisfies(catalog.get("D3"), parse_identity("x ^ y <= x")).holds
    res = satisfies(catalog.get("D3"), parse_identity("x <= x ^ y"))
    assert not res.holds and res.witness == {"x": 1, "y": 0}


def test_satisfies_closed_identity_no_variables():
    assert satisfies(catalog.get("2e"), parse_identity("0' = 1")).holds
    assert not satisfies(catalog.get("2bare"), parse_identity("0 -> 1 = 1")).holds


def test_satisfies_quasi():
    q = parse_quasi("x != 1 => x <= x'")
    assert satisfies(catalog.get("L3dm"), q).holds
    # on L5dp the middle element negates to top, premises hold, conclusion too
    assert satisfies(catalog.get("L5dp"), q).holds
    bad = parse_quasi("x = x => x = 1")
    res = satisfies(catalog.get("2e"), bad)
    assert not res.holds and res.witness == {"x": 0}


def test_holds_at_single_assignment():
    d2 = catalog.get("D2")
    ident = parse_identity("x v x* = 1")
    assert holds_at(d2, ident, {"x": d2.index("a")})


def test_truth_agrees_with_eval_term_on_random_terms():
    rng = random.Random(20261018)
    keys = [k for k in catalog.keys()
            if catalog.get(k).has_arrow and catalog.get(k).has_neg]
    assert len(keys) >= 25
    for key in keys:
        a = catalog.get(key)
        ops = (a.join, a.meet, a.arrow, a.neg, a.bot, a.top)
        for _ in range(40):
            t = random_term(rng, rng.randint(1, 5))
            u = random_term(rng, rng.randint(1, 5))
            env = {v: rng.randrange(a.size) for v in ("x", "y", "z")}
            l, r = eval_term(a, t, env), eval_term(a, u, env)
            # comparing t with every value of w pins the value of t exactly
            pin = compile_statement(Identity("eq", t, Var("w")))
            for w in range(a.size):
                assert truth(pin, ops, {**env, "w": w}) == (l == w)
            cases = [
                (Identity("eq", t, u), l == r),
                (Identity("leq", t, u), a.meet[l][r] == l),
                (QuasiIdentity((Atom("neq", t, u),), Atom("leq", u, t)),
                 l == r or a.meet[r][l] == r),
                (QuasiIdentity((Atom("leq", t, u), Atom("eq", u, Var("x"))),
                               Atom("eq", t, u)),
                 not (a.meet[l][r] == l and r == env["x"]) or l == r),
            ]
            for stmt, want in cases:
                assert truth(compile_statement(stmt), ops, env) == want, (key, stmt)


def _brute_force(a: FiniteAlgebra, stmt):
    """First failing assignment by the tree-walking reference evaluator."""
    def atom(at, env) -> bool:
        l, r = eval_term(a, at.lhs, env), eval_term(a, at.rhs, env)
        return {"eq": l == r, "leq": a.meet[l][r] == l, "neq": l != r}[at.kind]

    names = stmt.variables()
    for values in product(range(a.size), repeat=len(names)):
        env = dict(zip(names, values))
        if isinstance(stmt, Identity):
            ok = atom(stmt, env)
        else:
            ok = (not all(atom(p, env) for p in stmt.premises)
                  or atom(stmt.conclusion, env))
        if not ok:
            return env
    return None


def test_satisfies_matches_brute_force_on_catalog_and_suites():
    stmts = list(dict.fromkeys(s for suite in SUITES.values() for s in suite.items))
    checked = failed = 0
    for key in catalog.keys():
        a = catalog.get(key)
        for stmt in stmts:
            prog = compile_statement(stmt)
            if (prog.reads_neg and not a.has_neg) or \
                    (prog.reads_arrow and not a.has_arrow):
                continue
            res = satisfies(a, stmt)
            want = _brute_force(a, stmt)
            assert res.holds == (want is None), (key, stmt.source)
            assert res.witness == want, (key, stmt.source)
            assert all(type(v) is int for v in (res.witness or {}).values())
            checked += 1
            failed += want is not None
    assert checked > 500 and failed > 100, (checked, failed)


def test_witness_past_the_first_grid_chunk():
    # eight variables on four elements: 4^8 assignments in several chunks;
    # the first failure (a = h = the first nonzero element) has rank 4^7 + 1
    a = catalog.get("D2")
    stmt = parse_identity("a ^ h = 0 ^ (b v c v d v e v f v g)")
    assert a.size ** 8 > 2 * equations._CHUNK
    res = satisfies(a, stmt)
    want = _brute_force(a, stmt)
    assert not res.holds and res.witness == want
    rank = 0
    for name in stmt.variables():
        rank = rank * a.size + want[name]
    assert rank >= equations._CHUNK
    assert satisfies(a, parse_identity("a ^ h <= a v b v c v d v e v f v g")).holds


def _per_statement(a: FiniteAlgebra, suite: Suite):
    """A suite's results statement by statement, or the signature error a
    suite check raises: the negation before the arrow."""
    results, needs = [], set()
    for stmt in suite.items:
        try:
            results.append(satisfies(a, stmt))
        except SignatureError as e:
            needs.add(str(e).rsplit(" needs ", 1)[1])
    if needs:
        need = "a negation" if "a negation" in needs else "an arrow"
        return f"{a.name}: suite {suite.name} needs {need}"
    return [(r.holds, r.witness) for r in results]


def _suite_pass(a: FiniteAlgebra, suite: Suite):
    try:
        report = satisfies_suite(a, suite)
    except SignatureError as e:
        return str(e)
    assert [r.source for r in report.results] == [s.source for s in suite.items]
    return [(r.result.holds, r.result.witness) for r in report.results]


def test_suite_pass_matches_statement_by_statement():
    # every catalog entry against every suite and every lemma group: the
    # verdicts, the witnesses and the signature errors
    suites = list(SUITES.values()) + [
        Suite(name, tuple(s for _, s in items))
        for name, items in equations.lemma_groups().items()]
    failed = errors = 0
    for key in catalog.keys():
        a = catalog.get(key)
        for suite in suites:
            want = _per_statement(a, suite)
            assert _suite_pass(a, suite) == want, (key, suite.name)
            errors += isinstance(want, str)
            failed += not isinstance(want, str) and not all(h for h, _ in want)
    assert errors > 100 and failed > 300, (errors, failed)


# a mixed-arity suite: one-variable statements that first fail at a
# non-zero value beside three-variable ones, and x' and x ^ x' read at
# position 0 in one statement and at position 1 in the next
_MIXED = ("x ^ y <= x v z", "x ^ x' = 0", "x ^ x' <= w", "0 -> 1 = 1",
          "x != 0 => x' = x'' ^ x'", "x ^ (y -> x) = x")


@pytest.mark.parametrize("chunk", [1 << 14, 7])
def test_mixed_arity_suite_keeps_each_statements_witness(monkeypatch, chunk):
    monkeypatch.setattr(equations, "_CHUNK", chunk)
    suite = Suite("mixed", tuple(map(parse_statement, _MIXED)))
    nonzero = 0
    for key in catalog.keys():
        a = catalog.get(key)
        want = _per_statement(a, suite)
        assert _suite_pass(a, suite) == want, key
        if not isinstance(want, str):
            nonzero += sum(1 for _, w in want[1:3] if w and any(w.values()))
    assert nonzero > 10, nonzero


def test_suite_witness_past_the_first_grid_chunk():
    # the eight-variable statements pad the grid to 4^8 assignments: the
    # one-variable statement fails in the first chunk, at x = a, and an
    # eight-variable one past it
    a = catalog.get("D2")
    suite = Suite("wide", tuple(map(parse_statement, (
        "x ^ x' = 0", "a ^ h = 0 ^ (b v c v d v e v f v g)", "x v x* = 1",
        "a ^ h <= a v b v c v d v e v f v g"))))
    assert a.size ** 8 > 2 * equations._CHUNK
    got = _suite_pass(a, suite)
    assert got == _per_statement(a, suite)
    assert [h for h, _ in got] == [False, False, True, True]
    assert got[0][1] == {"x": a.index("a")}
    wide = got[1][1]
    rank = 0
    for name in sorted(wide):
        rank = rank * a.size + wide[name]
    assert rank >= equations._CHUNK


def test_suite_programs_share_ops_and_are_cached():
    suite = Suite("shared", tuple(map(parse_statement, ("x' = x", "y' = y", "x ^ y' <= x"))))
    prog = equations.compile_suite(suite)
    assert prog is equations.compile_suite(suite)
    assert prog.width == 2 and [r.names for r in prog.rows] == [("x",), ("y",), ("x", "y")]
    # x' and y' are both the negation of position 0; x ^ y' reads position 1
    assert sorted(prog.code) == [(equations._MEET, 0, 3), (equations._NEG, 0),
                                 (equations._NEG, 1)]
    assert prog.tables == {equations._MEET, equations._NEG}


def test_suites_and_lemma_groups_are_parsed_once():
    groups = equations.lemma_groups()
    assert groups is equations.lemma_groups()
    assert all(type(items) is tuple for items in groups.values())
    with pytest.raises(TypeError):
        groups["new"] = ()
    base = bases.BASE_ENTRIES[4].bases[0]
    assert bases._parsed(base) is bases._parsed(base)


def _batched_grid(prog, ops, n, batch) -> np.ndarray:
    """The (B, n^k) verdicts of a batch: ``grid_truth``'s blocks, one per
    grid chunk, side by side."""
    blocks = list(grid_truth(prog, ops, n, batch))
    assert all(v.shape[0] == len(batch) for v in blocks)
    return np.concatenate(blocks, axis=1)


@pytest.mark.parametrize("chunk", [1 << 14, 40, 5])
def test_batched_verdicts_agree_with_eval_term(monkeypatch, chunk):
    # stacks of random complete tables on one lattice, each layer a random
    # arrow with a random negation; the batch picks layers with repeats
    monkeypatch.setattr(equations, "_CHUNK", chunk)
    blocks: list[int] = []
    grid = equations.grid_truth

    def recorded(*args):
        for v in grid(*args):
            blocks.append(v.size)
            yield v

    rng = random.Random(chunk)
    for key in ("D2", "L1dm"):
        lat = catalog.get(key)
        n = lat.size
        arrows = np.array([[[rng.randrange(n) for _ in range(n)] for _ in range(n)]
                           for _ in range(5)], np.int8)
        negs = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(3)], np.int8)
        pairs = [(rng.randrange(5), rng.randrange(3)) for _ in range(8)]
        ops = (lat.join, lat.meet, arrows[[i for i, _ in pairs]],
               negs[[j for _, j in pairs]], lat.bot, lat.top)
        batch = np.array([rng.randrange(len(pairs)) for _ in range(12)])
        algebras = [FiniteAlgebra("stacked", lat.elements, lat.join, lat.meet,
                                  tuple(map(tuple, arrows[pairs[b][0]].tolist())),
                                  tuple(negs[pairs[b][1]].tolist()), lat.bot, lat.top)
                    for b in batch]
        for _ in range(12):
            t = random_term(rng, rng.randint(0, 3))
            u = random_term(rng, rng.randint(0, 3))
            w = random_term(rng, rng.randint(0, 2))
            for stmt in (Identity("eq", t, u), Identity("leq", t, u),
                         QuasiIdentity((Atom(rng.choice(("eq", "leq", "neq")), w, t),),
                                       Atom("eq", t, u))):
                prog = compile_statement(stmt)
                got = _batched_grid(prog, ops, n, batch)
                want = np.array([[_reference_truth(a, stmt, dict(zip(stmt.variables(), env)))
                                  for env in product(range(n), repeat=prog.width)]
                                 for a in algebras])
                assert got.shape == want.shape and (got == want).all(), (key, stmt)
                # stack_holds slices the batch so that no block it asks of
                # grid_truth holds more than one chunk of verdicts
                blocks.clear()
                with monkeypatch.context() as m:
                    m.setattr(equations, "grid_truth", recorded)
                    assert (stack_holds(prog, ops, n, batch) == want.all(axis=1)).all()
                assert blocks and max(blocks) <= chunk, (blocks, chunk)
        empty = np.array([], int)
        assert stack_holds(compile_statement(Identity("eq", t, u)), ops, n, empty).shape == (0,)


def test_stack_holds_on_unknown_cells_counts_them_as_asked():
    # on padded stacks with unknown cells, a statement holds where every
    # verdict is 1, and with unknown_holds where none is 0
    rng = random.Random(11)
    lat = catalog.get("L1dm")
    n = lat.size
    arrows = np.full((6, n + 1, n + 1), -1, np.int8)
    negs = np.full((6, n + 1), -1, np.int8)
    arrows[:, :n, :n] = [[[rng.choice((-1, *range(n))) for _ in range(n)]
                          for _ in range(n)] for _ in range(6)]
    negs[:, :n] = [[rng.choice((-1, *range(n))) for _ in range(n)] for _ in range(6)]
    ops = ([list(r) + [-1] for r in lat.join] + [[-1] * (n + 1)],
           [list(r) + [-1] for r in lat.meet] + [[-1] * (n + 1)],
           arrows, negs, lat.bot, lat.top)
    batch = np.arange(6)
    differ = 0
    for _ in range(40):
        stmt = Identity("eq", random_term(rng, rng.randint(1, 3)),
                        random_term(rng, rng.randint(0, 3)))
        prog = compile_statement(stmt)
        verdicts = _batched_grid(prog, ops, n, batch)
        strict = stack_holds(prog, ops, n, batch)
        lenient = stack_holds(prog, ops, n, batch, unknown_holds=True)
        assert (strict == (verdicts == 1).all(axis=1)).all(), stmt
        assert (lenient == (verdicts != 0).all(axis=1)).all(), stmt
        differ += int((strict != lenient).sum())
    assert differ, differ


def test_signature_fail_fast():
    bare = catalog.get("L1")  # no negation
    with pytest.raises(SignatureError):
        satisfies_suite(bare, "DQD")
    with pytest.raises(SignatureError):
        satisfies(bare, parse_identity("x' = x"))
    lattice_only = catalog.get("double-diamond")
    with pytest.raises(SignatureError):
        satisfies_suite(lattice_only, "SH")


def test_signature_errors_name_the_statement_or_suite():
    cases = [(catalog.get("2"), "DQD", "2: suite DQD needs a negation"),
             (catalog.get("double-diamond"), "SH", "double-diamond: suite SH needs an arrow")]
    for a, suite, message in cases:
        with pytest.raises(SignatureError) as e:
            satisfies_suite(a, suite)
        assert str(e.value) == message
    cases = [(catalog.get("2"), "x+ = x", "2: statement 'x+ = x' needs a negation"),
             (catalog.get("double-diamond"), "x* = x",
              "double-diamond: statement 'x* = x' needs an arrow")]
    for a, source, message in cases:
        for check in (satisfies, lambda a, s: holds_at(a, s, {"x": 0})):
            with pytest.raises(SignatureError) as e:
                check(a, parse_identity(source))
            assert str(e.value) == message


def _reference_reads(t) -> tuple[bool, bool]:
    """Whether a sugared term reads the negation and the arrow, walked
    directly: ', + and the primestar node read the negation and * only
    if its argument does; ->, *, + and the primestar node read the arrow."""
    match t:
        case Var(_) | Const(_):
            return False, False
        case Join(l, r) | Meet(l, r) | Arrow(l, r):
            (nl, al), (nr, ar) = _reference_reads(l), _reference_reads(r)
            return nl or nr, al or ar or isinstance(t, Arrow)
        case Neg(a):
            return True, _reference_reads(a)[1]
        case Star(a):
            return _reference_reads(a)[0], True
        case Plus(_) | PrimeStar(_, _):
            return True, True
    raise TypeError(f"not a term: {t!r}")


def test_program_tables_name_the_tables_a_statement_reads():
    rng = random.Random(16)
    stmts = [s for suite in SUITES.values() for s in suite.items]
    stmts += [s for items in equations.lemma_groups().values() for _, s in items]
    stmts += [_random_statement(rng) for _ in range(500)]
    seen = set()
    for stmt in stmts:
        atoms = (stmt,) if isinstance(stmt, Identity) else stmt.premises + (stmt.conclusion,)
        reads = [_reference_reads(t) for at in atoms for t in (at.lhs, at.rhs)]
        want = (any(n for n, _ in reads), any(a for _, a in reads))
        prog = compile_statement(stmt)
        assert (equations._NEG in prog.tables, equations._ARROW in prog.tables) == want, stmt
        assert (prog.reads_neg, prog.reads_arrow) == want, stmt
        seen.add(want)
    assert len(seen) == 4, seen


def test_bare_chains_pass_sh():
    for i in range(1, 11):
        assert satisfies_suite(catalog.get(f"L{i}"), "SH").holds
    assert satisfies_suite(catalog.get("2"), "SH").holds
    assert satisfies_suite(catalog.get("2bar"), "SH").holds


def test_suite_registry():
    assert "SH" in suite_names() and "RDQDStSH1" in suite_names()
    rq = get_suite("RDQDStSH1")
    sources = [s.source for s in rq.items]
    assert "x* v x** = 1" in sources
    assert len(sources) == len(set(sources))  # composites deduplicate
    with pytest.raises(InputError):
        get_suite("NOPE")


def test_suite_conformance_split():
    # dm-chains are involutive, dp-chains pseudocomplemented, diamonds boolean
    for i in range(1, 11):
        assert satisfies_suite(catalog.get(f"L{i}dm"), "DM").holds
        assert not satisfies_suite(catalog.get(f"L{i}dp"), "DM").holds
        assert satisfies_suite(catalog.get(f"L{i}dp"), "PC").holds
    for k in ("D1", "D2", "D3"):
        assert satisfies_suite(catalog.get(k), "Bo").holds
        assert satisfies_suite(catalog.get(k), "DM").holds
    for k in ("2e", "2bare"):
        assert satisfies_suite(catalog.get(k), "DM").holds


def test_suite_report_first_failure():
    rep = satisfies_suite(catalog.get("L5dm"), "H")
    assert not rep.holds
    ff = rep.first_failure()
    assert ff.source == "(x ^ y) -> y = 1"
    assert ff.result.witness == {"x": 0, "y": 1}


def test_sh4_and_co_filters():
    sh4 = [k for k in catalog.family("rdmsh1-simples")
           if satisfies_suite(catalog.get(k), "SH4").holds]
    assert sh4 == ["2e", "L1dm", "D2"]
    co = [k for k in catalog.family("rdmsh1-simples")
          if satisfies_suite(catalog.get(k), "Co").holds]
    assert co == ["2bare", "L10dm", "D1"]


def test_parse_ids_text():
    sections = parse_ids_text("# c\n[A]\nx = x\nlbl: x <= 1\n")
    assert list(sections) == ["A"]
    labels = [lbl for lbl, _ in sections["A"]]
    assert labels == ["A-1", "lbl"]
    with pytest.raises(InputError):
        parse_ids_text("x = x\n")  # statement before section
    with pytest.raises(InputError):
        parse_ids_text("[A]\n[A]\n")


def test_run_lemma_suite_all_hold():
    reports = run_lemma_suite()
    assert {r.name for r in reports} == {"dqd-basic", "regular-dm", "stone-property"}
    for r in reports:
        assert r.holds, (r.name, [i.label for i in r.items if not i.holds])
    by_name = {r.name: r for r in reports}
    assert by_name["dqd-basic"].algebras == catalog.family("all-simples")
    assert by_name["stone-property"].algebras == catalog.family("rdmsh1-simples")


def test_run_lemma_suite_subset():
    reports = run_lemma_suite(["stone-property"])
    assert len(reports) == 1 and reports[0].name == "stone-property"
