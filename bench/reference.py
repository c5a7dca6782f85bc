"""The benchmark's own evaluator, used to re-verify search solutions.

A copy of the program's brute-force semantics (``terms.eval_term`` and
``equations.satisfies``), kept here so that a change to the program's
evaluator cannot vouch for the solutions its searches produce.  It reads
an algebra as the JSON object the command line prints (``join``,
``meet``, ``arrow``, ``neg``, ``bot``, ``top``) and walks the program's
parsed statements.
"""

from __future__ import annotations

from itertools import product

from shw.terms import (Arrow, Const, Identity, Join, Meet, Neg, Plus,
                       PrimeStar, Star, Var)


def _star(a: dict, x: int) -> int:
    return a["arrow"][x][a["bot"]]


def _value(a: dict, t, env: dict) -> int:
    match t:
        case Var(name):
            return env[name]
        case Const(v):
            return a["bot"] if v == 0 else a["top"]
        case Join(l, r):
            return a["join"][_value(a, l, env)][_value(a, r, env)]
        case Meet(l, r):
            return a["meet"][_value(a, l, env)][_value(a, r, env)]
        case Arrow(l, r):
            return a["arrow"][_value(a, l, env)][_value(a, r, env)]
        case Neg(x):
            return a["neg"][_value(a, x, env)]
        case Star(x):
            return _star(a, _value(a, x, env))
        case Plus(x):
            return a["neg"][_star(a, a["neg"][_value(a, x, env)])]
        case PrimeStar(x, k):
            v = _value(a, x, env)
            for _ in range(k):
                v = _star(a, a["neg"][v])
            return v
    raise TypeError(f"not a term: {t!r}")


def _names(t, out: set) -> set:
    match t:
        case Var(name):
            out.add(name)
        case Join(l, r) | Meet(l, r) | Arrow(l, r):
            _names(l, out)
            _names(r, out)
        case Neg(x) | Star(x) | Plus(x) | PrimeStar(x, _):
            _names(x, out)
    return out


def _atom(a: dict, kind: str, lhs, rhs, env: dict) -> bool:
    l, r = _value(a, lhs, env), _value(a, rhs, env)
    if kind == "eq":
        return l == r
    if kind == "leq":
        return a["meet"][l][r] == l
    return l != r


def holds(a: dict, stmt) -> bool:
    """Whether an identity or quasi-identity holds under every assignment."""
    if isinstance(stmt, Identity):
        atoms, premises = [stmt], []
    else:
        atoms, premises = [*stmt.premises, stmt.conclusion], stmt.premises
    names = set()
    for at in atoms:
        _names(at.lhs, names)
        _names(at.rhs, names)
    names = sorted(names)
    for values in product(range(len(a["elements"])), repeat=len(names)):
        env = dict(zip(names, values))
        if all(_atom(a, p.kind, p.lhs, p.rhs, env) for p in premises) and \
                not _atom(a, atoms[-1].kind, atoms[-1].lhs, atoms[-1].rhs, env):
            return False
    return True
