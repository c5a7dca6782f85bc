"""Batch command line front end.

Every command prints a deterministic text report, or a versioned JSON
payload under ``--json``.  Exit codes: 0 all checked properties hold,
1 a property fails (witnesses included in the output), 2 usage or input
error, 3 inconclusive (a search hit its timeout).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import amalgamation, bases, catalog, varieties
from .algebra import loads, to_json_dict, validate_lattice
from .equations import (
    run_lemma_suite,
    satisfies,
    satisfies_suite,
    suite_names,
)
from .errors import ShwError
from .modelsearch import (
    build_spec,
    enumerate_algebras,
    exhaustive_stone_check,
    parse_seconds,
)
from .structure import (
    all_subuniverses,
    automorphisms,
    classify_primality,
    congruence_lattice,
    has_cep,
    is_simple,
    primality_census,
)
from .terms import parse_statement, parse_term, eval_term


@dataclass(frozen=True)
class CommandResult:
    """A command's exit code, its text, and its --json payload.

    ``run`` writes the payload as the text under ``--json``.  ``catalog
    export`` and a search have none: each returns its text in either mode.
    """

    code: int
    text: str
    payload: dict | None = None


def _labels(a, indices) -> list[str]:
    return [a.elements[i] for i in indices]


def _witness_str(witness: dict[str, str] | None) -> str:
    if not witness:
        return ""
    return "  [" + ", ".join(f"{k}={v}" for k, v in sorted(witness.items())) + "]"


def _blocks(partition) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for x, root in enumerate(partition):
        groups.setdefault(root, []).append(x)
    return [groups[r] for r in sorted(groups)]


_INT_ONLY = {int}


def _dumps(obj) -> str:
    """The stdlib's ``json.dumps`` text with indent 2 and sorted keys.

    With an indent the stdlib gives up its C encoder for nested
    generators.  This writer recurses and joins instead.  It renders
    ``str``, ``bool``, ``None`` and plain ``int`` scalars as the stdlib
    does.  Other scalars, ``int`` subclasses and numpy scalars included,
    and non-``str`` keys go through the stdlib, so floats and the
    ``TypeError`` for a non-JSON value are its own.
    """

    def render(o, level: int) -> str:
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        # by type, not isinstance(): a bool is an int, and an int subclass
        # may print otherwise
        t = type(o)
        if t is bool:
            return "true" if o else "false"
        if o is None:
            return "null"
        if t is int:
            return int.__repr__(o)
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            # by type, not isinstance(): a bool must print as true/false
            if set(map(type, o)) == _INT_ONLY:
                return _block("[", map(int.__repr__, o), "]", level)
            return _block("[", [render(v, level + 1) for v in o], "]", level)
        if isinstance(o, dict):
            if not o:
                return "{}"
            return _block("{", [_key(k) + ": " + render(v, level + 1)
                                for k, v in sorted(o.items())], "}", level)
        return json.dumps(o)

    return render(obj, 0)


def _block(opening: str, items, closing: str, level: int) -> str:
    outer = "\n" + "  " * level
    inner = outer + "  "
    return opening + inner + ("," + inner).join(items) + outer + closing


def _key(k) -> str:
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    # '{"<key>": 0}': the stdlib turns a number, bool or None key into a
    # string and raises its TypeError for any other
    return json.dumps({k: 0})[1:-4]


# -- command handlers --------------------------------------------------------

def _cmd_catalog(args) -> CommandResult:
    if args.action == "list":
        if args.key is not None:
            raise ShwError("catalog list takes no key")
        entries = []
        lines = []
        for key in catalog.keys():
            a = catalog.get(key)
            entries.append({"key": key, "size": a.size,
                            "elements": list(a.elements),
                            "arrow": a.has_arrow, "neg": a.has_neg})
            lines.append(f"{key:8} size {a.size}  elements {','.join(a.elements)}")
        return CommandResult(0, "\n".join(lines),
                             {"schema": "shw.catalog-list/1", "entries": entries})
    if not args.key:
        raise ShwError("catalog export needs a key")
    return CommandResult(0, _dumps(to_json_dict(catalog.get(args.key))))


def _cmd_eval(args) -> CommandResult:
    a = catalog.get(args.key)
    term = parse_term(args.term)
    env = {}
    if args.assign:
        for piece in args.assign.split(","):
            name, _, label = piece.partition("=")
            name = name.strip()
            if not name:
                raise ShwError(f"--assign: no variable name in {piece!r}")
            if name in env:
                raise ShwError(f"--assign: variable {name!r} is bound twice")
            env[name] = a.index(label.strip())
    value = a.elements[eval_term(a, term, env)]
    payload = {"schema": "shw.eval/1", "algebra": args.key, "term": args.term,
               "assignment": {k: a.elements[v] for k, v in env.items()},
               "value": value}
    return CommandResult(0, value, payload)


def _cmd_check(args) -> CommandResult:
    a = catalog.get(args.key)
    if args.suite:
        report = satisfies_suite(a, args.suite)
        items = [(r.source, r.result) for r in report.results]
        suite = args.suite
    else:
        stmt = parse_statement(args.identity)
        items = [(stmt.source, satisfies(a, stmt))]
        suite = None
    lines = []
    rows = []
    ok = True
    for source, res in items:
        w = res.witness_labels(a)
        ok &= res.holds
        lines.append(("ok   " if res.holds else "FAIL ") + source
                     + ("" if res.holds else _witness_str(w)))
        rows.append({"statement": source, "holds": res.holds, "witness": w})
    payload = {"schema": "shw.check/1", "algebra": args.key, "suite": suite,
               "items": rows, "holds": ok}
    return CommandResult(0 if ok else 1, "\n".join(lines), payload)


def _cmd_structure(args) -> CommandResult:
    a = catalog.get(args.key)
    payload: dict = {"schema": "shw.structure/1", "algebra": args.key,
                     "kind": args.what}
    if args.what == "subs":
        subs = [sorted(s) for s in all_subuniverses(a)]
        lines = [("{" + ",".join(_labels(a, s)) + "}") for s in subs]
        payload["subuniverses"] = [_labels(a, s) for s in subs]
        return CommandResult(0, "\n".join(lines), payload)
    if args.what == "cons":
        cons = congruence_lattice(a)
        rendered = [[_labels(a, b) for b in _blocks(p)] for p in cons]
        lines = ["|".join("{" + ",".join(b) + "}" for b in blocks)
                 for blocks in rendered]
        payload["congruences"] = rendered
        payload["count"] = len(cons)
        return CommandResult(0, "\n".join(lines), payload)
    if args.what == "autos":
        auts = automorphisms(a)
        maps = [{a.elements[x]: a.elements[m.mapping[x]] for x in range(a.size)}
                for m in auts]
        lines = [", ".join(f"{k}->{v}" for k, v in sorted(m.items()))
                 for m in maps]
        payload["automorphisms"] = maps
        return CommandResult(0, "\n".join(lines), payload)
    report = has_cep(a)
    payload["ok"] = report.ok
    payload["failures"] = [{"subuniverse": list(f.subuniverse)}
                           for f in report.failures]
    text = "cep holds" if report.ok else f"cep fails on {len(report.failures)} subalgebras"
    return CommandResult(0 if report.ok else 1, text, payload)


def _cmd_simple(args) -> CommandResult:
    a = catalog.get(args.key)
    simple = is_simple(a)
    # a simple algebra has exactly two congruences
    count = 2 if simple else len(congruence_lattice(a))
    text = "simple" if simple else f"not simple ({count} congruences)"
    payload = {"schema": "shw.simple/1", "algebra": args.key,
               "simple": simple, "congruences": count}
    return CommandResult(0 if simple else 1, text, payload)


def _cmd_primality(args) -> CommandResult:
    r = classify_primality(catalog.get(args.key))
    text = (f"{r.verdict}  (square subuniverses {r.square_subuniverses}, "
            f"internal isos {len(r.internal_isos)}, "
            f"proper subuniverses {r.proper_subuniverses}, "
            f"automorphisms {r.automorphism_count})")
    payload = {"schema": "shw.primality/1", "algebra": args.key,
               "verdict": r.verdict,
               "square_subuniverses": r.square_subuniverses,
               "internal_isos": len(r.internal_isos),
               "proper_subuniverses": r.proper_subuniverses,
               "automorphisms": r.automorphism_count}
    return CommandResult(0 if r.quasiprimal else 1, text, payload)


def _verify_lemmas(args) -> CommandResult:
    if args.group is not None and not args.group.strip():
        raise ShwError("--group: empty lemma group name")
    groups = run_lemma_suite(None if args.group is None else [args.group.strip()])
    lines = []
    out = []
    ok = True
    for g in groups:
        ok &= g.holds
        lines.append(f"{'ok  ' if g.holds else 'FAIL'} {g.name} "
                     f"({len(g.items)} statements on {len(g.algebras)} algebras)")
        items = []
        for item in g.items:
            failures = [{"algebra": v.algebra,
                         "witness": v.result.witness_labels(catalog.get(v.algebra))}
                        for v in item.verdicts if not v.result.holds]
            items.append({"label": item.label, "source": item.source,
                          "holds": item.holds, "failures": failures})
            if not item.holds:
                lines.append(f"      {item.label}: {failures}")
        out.append({"name": g.name, "family": g.family,
                    "algebras": list(g.algebras), "holds": g.holds,
                    "items": items})
    payload = {"schema": "shw.verify-lemmas/1", "groups": out, "holds": ok}
    return CommandResult(0 if ok else 1, "\n".join(lines), payload)


def _verify_bases(args) -> CommandResult:
    rows = bases.verify_bases()
    lines = []
    for row in rows:
        lines.append(f"{'ok  ' if row.ok else 'FAIL'} {row.slug}[{row.base_index}] "
                     f"generators {','.join(row.generators)} "
                     f"expected {len(row.expected)} satisfied {len(row.satisfied)}")
        for d in row.discrepancies:
            lines.append(f"      {d.algebra}: {d.kind}"
                         + (f" {d.identity!r}{_witness_str(d.witness)}" if d.identity else "")
                         + (f"  ({d.certificate})" if d.certificate else ""))
    ok = all(row.ok for row in rows)
    # a row's fields as they are: tuples render as lists
    payload = {"schema": "shw.verify-bases/1", "rows": list(map(asdict, rows)), "ok": ok}
    return CommandResult(0 if ok else 1, "\n".join(lines), payload)


def _verify_lattice(args) -> CommandResult:
    rows = []
    lines = []
    ok = True
    for key in catalog.keys():
        report = validate_lattice(catalog.get(key))
        ok &= report.ok
        rows.append({"key": key, "ok": report.ok,
                     "failures": [{"law": f.law, "witness": f.witness}
                                  for f in report.failures]})
        lines.append(f"{'ok  ' if report.ok else 'FAIL'} {key}")
    payload = {"schema": "shw.verify-lattice/1", "entries": rows, "ok": ok}
    return CommandResult(0 if ok else 1, "\n".join(lines), payload)


def _verify_primality(args) -> CommandResult:
    r = primality_census(map(catalog.get, catalog.family("all-simples")))
    lines = [f"{k:8} {v}" for k, v in r.verdicts.items()]
    lines.append(f"primal set: {','.join(r.primal)}")
    for name, (_, matches) in r.readings.items():
        lines.append(f"reading {name}: {'matches' if matches else 'differs'}")
    readings = {name: {"expected": list(keys), "matches": matches}
                for name, (keys, matches) in r.readings.items()}
    payload = {"schema": "shw.verify-primality/1", "verdicts": r.verdicts,
               "primal": list(r.primal), "readings": readings,
               "all_quasiprimal": r.all_quasiprimal, "ok": r.ok}
    return CommandResult(0 if r.ok else 1, "\n".join(lines), payload)


def _verify_cep(args) -> CommandResult:
    rows = []
    lines = []
    ok = True
    for key in catalog.family("all-simples"):
        report = has_cep(catalog.get(key))
        ok &= report.ok
        rows.append({"algebra": key, "ok": report.ok})
        lines.append(f"{'ok  ' if report.ok else 'FAIL'} {key}")
    payload = {"schema": "shw.verify-cep/1", "reports": rows, "ok": ok}
    return CommandResult(0 if ok else 1, "\n".join(lines), payload)


def _verify_stone(args) -> CommandResult:
    # the group binds x* v x** = 1 to the rdmsh1-simples family
    (stone,) = run_lemma_suite(["stone-property"])[0].items
    simple_rows = [{"algebra": v.algebra, "holds": v.result.holds,
                    "witness": v.result.witness_labels(catalog.get(v.algebra))}
                   for v in stone.verdicts]
    simples_ok = stone.holds
    max_size = 4 if args.max_size is None else args.max_size
    scan = exhaustive_stone_check(max_size)
    lines = [f"{'ok  ' if simples_ok else 'FAIL'} x* v x** = 1 on all "
             f"{len(simple_rows)} level-1 regular simples"]
    for t in scan.tallies:
        lines.append(f"{t.lattice}: arrows {t.arrows} negations {t.negations} "
                     f"screened {t.screened} violations {len(t.violations)}")
    lines.append(f"scan of size <= {max_size}: "
                 + ("complete, " if scan.complete else "INCOMPLETE, ")
                 + ("no violators" if scan.holds or not scan.complete else "VIOLATORS FOUND"))
    payload = {"schema": "shw.verify-stone/1",
               "simples": {"rows": simple_rows, "holds": simples_ok},
               "scan": {"max_size": scan.max_size, "complete": scan.complete,
                        "holds": scan.holds,
                        "tallies": [{"lattice": t.lattice, "size": t.size,
                                     "arrows": t.arrows,
                                     "negations": t.negations,
                                     "screened": t.screened,
                                     "violations": [to_json_dict(v)
                                                    for v in t.violations]}
                                    for t in scan.tallies]}}
    if not scan.complete:
        return CommandResult(3, "\n".join(lines), payload)
    ok = simples_ok and scan.holds
    return CommandResult(0 if ok else 1, "\n".join(lines), payload)


_VERIFY_HANDLERS = {
    "lemmas": _verify_lemmas,
    "bases": _verify_bases,
    "corollaries": _verify_bases,
    "lattice": _verify_lattice,
    "primality": _verify_primality,
    "cep": _verify_cep,
    "stone": _verify_stone,
}


def _generators(raw: str, option: str) -> list[str]:
    """The comma separated generator keys given to an option."""
    if not raw.strip():
        raise ShwError(f"{option}: empty generator list")
    gens = [g.strip() for g in raw.split(",")]
    if not all(gens):
        raise ShwError(f"{option}: empty generator name")
    for i, g in enumerate(gens):
        if g in gens[:i]:
            raise ShwError(f"{option}: generator {g!r} is named twice")
    return gens


def _cmd_variety(args) -> CommandResult:
    if args.action == "member":
        gens = _generators(args.gens, "--gens")
        inside = varieties.in_variety(args.key, gens)
        payload = {"schema": "shw.variety-member/1", "key": args.key,
                   "generators": gens, "member": inside}
        return CommandResult(0 if inside else 1,
                             "member" if inside else "not a member", payload)
    count = varieties.subvariety_count(args.ambient)
    payload = {"schema": "shw.variety-count/1", "ambient": args.ambient,
               "count": count}
    return CommandResult(0, str(count), payload)


def _map_labels(m) -> dict[str, str]:
    return {m.source.elements[x]: m.target.elements[m(x)]
            for x in range(m.source.size)}


def _survey_row(r: amalgamation.SurveyRow) -> dict:
    am, verdict = r.amalgam, r.decided
    row = {"base": am.base, "left": am.left, "right": am.right,
           "verdict": verdict.kind}
    if verdict.kind == "witness":
        w = verdict.witness
        row["witness"] = {"target": w.target,
                          "left_map": _map_labels(w.from_left),
                          "right_map": _map_labels(w.from_right)}
    else:
        row["reasons"] = [list(reason) for reason in verdict.reasons]
        if r.brute is not None:
            row["oracle"] = r.brute.kind
    return row


def _survey(gens: list[str], oracle: bool) -> dict:
    v = varieties.closure(gens, "rdqdstsh1")
    rows = amalgamation.survey(v, oracle)
    return {"generators": gens, "members": list(v.members()),
            "amalgams": len(rows),
            "obstructed": sum(r.decided.kind != "witness" for r in rows),
            "consistent": all(r.consistent for r in rows),
            "rows": [_survey_row(r) for r in rows]}


def _cmd_amalgam(args) -> CommandResult:
    if args.variety is not None:
        surveys = [_survey(_generators(args.variety, "--variety"), args.oracle)]
    else:
        keys = list(varieties.get_ambient(args.all_subvarieties_of).keys)
        surveys = [_survey([key], args.oracle) for key in keys]
        surveys.append(_survey(keys, args.oracle))
    lines = []
    failing = []
    for s in surveys:
        tag = "ok  " if s["obstructed"] == 0 else "FAIL"
        lines.append(f"{tag} V({','.join(s['generators'])}): "
                     f"{s['amalgams']} amalgams, {s['obstructed']} obstructed")
        for row in s["rows"]:
            if row["verdict"] != "witness":
                lines.append(f"      ({row['base']}; {row['left']}, {row['right']})"
                             f" obstructed: " + "; ".join(
                                 f"{k}: {why}" for k, why in row["reasons"]))
        if s["obstructed"]:
            failing.append(s["generators"])
    claim_holds = not failing
    lines.append("reference claim: every subvariety amalgamates; computed: "
                 + ("agrees" if claim_holds else
                    "fails for " + "; ".join(f"V({','.join(g)})" for g in failing)))
    payload = {"schema": "shw.amalgam/1", "surveys": surveys,
               "claim": {"statement": "every subvariety amalgamates",
                         "holds": claim_holds,
                         "counterexamples": [list(g) for g in failing]}}
    return CommandResult(0 if claim_holds else 1, "\n".join(lines), payload)


def _statements(raw: str, option: str) -> list[str]:
    """The comma separated statements given to an option, stripped; none
    if empty."""
    items = [s.strip() for s in raw.split(",")] if raw else []
    if not all(items):
        raise ShwError(f"{option}: empty statement")
    return items


def _cmd_search(args) -> CommandResult:
    if args.lattice in catalog.keys():
        lattice = catalog.get(args.lattice)
    else:
        try:
            text = Path(args.lattice).read_text()
        except FileNotFoundError:
            raise ShwError(f"no catalog key or file named {args.lattice!r}") from None
        except (OSError, UnicodeDecodeError) as e:
            raise ShwError(f"cannot read {args.lattice!r}: {e}") from None
        lattice = loads(text)
    require = _statements(args.require, "--require")
    forbid = _statements(args.forbid, "--forbid")
    timeout = None if args.timeout is None else parse_seconds(args.timeout,
                                                              "--timeout")
    spec = build_spec(lattice, require, forbid,
                      max_solutions=args.limit, timeout=timeout)
    result = enumerate_algebras(spec, cell_order=args.order, jobs=args.jobs)
    k = len(result.rows)
    code = 3 if result.reason == "timeout" else 0 if k else 1
    header = f"{k} solutions, {result.reason} ({result.nodes} nodes, {result.elapsed:.2f}s)"
    # one writer for both modes: a text line is json.dumps(d, sort_keys=True)
    # of a solution's to_json_dict d, and --json is _dumps of the payload
    # with its solutions at level 2
    texts = _solution_texts(to_json_dict(spec.lattice), result.rows,
                            2 if args.json else None)
    if not args.json:
        return CommandResult(code, "\n".join([header, *texts]))
    head = _dumps({"schema": "shw.search/1", "lattice": spec.lattice.name,
                   "require": require, "forbid": forbid,
                   "complete": result.complete, "reason": result.reason,
                   "nodes": result.nodes, "solutions": []})
    assert head.endswith('"solutions": []\n}')  # its last key
    if texts:
        texts[0] = head[:-3] + "\n    " + texts[0]
        texts[-1] += "\n  ]\n}"
    return CommandResult(code, ",\n    ".join(texts or [head]))


def _distinct(rows: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct rows of a 2-D array of values 0..w-1, w its width, as
    lists, and the index of each row among them.  Integer row keys find
    them far faster than ``np.unique(axis=0)``, while w ** w fits an int64."""
    w = rows.shape[1]
    if w < 16:
        keys = rows.astype(np.int64) @ w ** np.arange(w, dtype=np.int64)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        return rows[first].tolist(), inverse
    unique, inverse = np.unique(rows, axis=0, return_inverse=True)
    return unique.tolist(), inverse.reshape(-1)


def _solution_texts(lat: dict, rows: np.ndarray, level: int | None) -> list[str]:
    """The texts of a search's solutions, one per row of ``rows`` (see
    ``SearchResult.rows``; -1 in a table not searched): ``lat``
    (``to_json_dict`` of the lattice) named ``<name>#<i>``, with the row's
    arrow and negation.  Each is ``_dumps``'s text of its dict at
    ``level``, or with ``level`` None ``json.dumps(d, sort_keys=True)``'s.
    Each lattice field and distinct arrow row and negation is rendered
    once, and a solution is one f-string of those texts.
    """
    pad = "" if level is None else "\n" + "  " * (level + 1)
    row_pad = pad and pad + "  "
    comma, row_comma = "," + (pad or " "), "," + (row_pad or " ")
    # json.dumps writes no newline, so its text reads the same at any pad
    dump = json.dumps if level is None else _dumps
    # a solution's keys sort as arrow, the lattice's fields up to its name,
    # name, neg, the lattice's fields after it
    assert min(lat) > "arrow" and not any("name" < key < "neg" for key in lat)
    fields = [(key, _key(key) + ": " + dump(v).replace("\n", pad))
              for key, v in sorted(lat.items()) if key != "name"]
    name = '"name": ' + encode_basestring_ascii(lat["name"] + "#")[:-1]
    opening = "{" + pad
    middle = comma.join([t for key, t in fields if key < "name"] + [name])
    tail = "".join(comma + t for key, t in fields if key > "name") + pad[:-2] + "}"
    k, n = len(rows), len(lat["elements"])
    row_texts, arrow_ids = [], [()] * k
    if k and rows[0, n] >= 0:
        opening += '"arrow": [' + row_pad
        middle = pad + "]" + comma + middle
        lists, ids = _distinct(rows[:, n:].reshape(-1, n))
        row_texts = [dump(r).replace("\n", row_pad) for r in lists]
        arrow_ids = ids.reshape(k, n).tolist()
    neg_texts, neg_ids = [""], [0] * k
    if k and rows[0, 0] >= 0:
        lists, ids = _distinct(rows[:, :n])
        neg_texts = [comma + '"neg": ' + dump(m).replace("\n", pad) for m in lists]
        neg_ids = ids.tolist()
    return [f'{opening}{row_comma.join(map(row_texts.__getitem__, a))}{middle}{i}"{neg_texts[m]}{tail}'
            for i, a, m in zip(range(k), arrow_ids, neg_ids)]


def _cmd_verify(args) -> CommandResult:
    for option, value, target in (("--group", args.group, "lemmas"),
                                  ("--max-size", args.max_size, "stone")):
        if value is not None and args.what != target:
            raise ShwError(f"{option} applies only to 'verify {target}'")
    return _VERIFY_HANDLERS[args.what](args)


# -- wiring ------------------------------------------------------------------

def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return value


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.

    Its choices (suite names, ambients) are fixed at import, and parsing
    leaves a parser unchanged, so every ``run`` shares it.
    """
    p = argparse.ArgumentParser(
        prog="shw",
        description="verification workbench for semi-Heyting algebras "
                    "with a dually quasi-De Morgan negation")
    p.add_argument("--json", action="store_true",
                   help="emit a versioned JSON payload instead of text")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel workers that shard 'search'")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("catalog", help="list or export catalog algebras")
    c.add_argument("action", choices=["list", "export"])
    c.add_argument("key", nargs="?",
                   help="the catalog key to export")
    c.set_defaults(handler=_cmd_catalog)

    e = sub.add_parser("eval", help="evaluate a term in a catalog algebra")
    e.add_argument("key")
    e.add_argument("term")
    e.add_argument("--assign", default="",
                   help="comma separated variable=label pairs")
    e.set_defaults(handler=_cmd_eval)

    ch = sub.add_parser("check", help="check a suite or one statement")
    ch.add_argument("key")
    g = ch.add_mutually_exclusive_group(required=True)
    g.add_argument("--suite", choices=suite_names())
    g.add_argument("--identity", help="statement source text")
    ch.set_defaults(handler=_cmd_check)

    st = sub.add_parser("structure", help="subuniverses, congruences, "
                                          "automorphisms, congruence extension")
    st.add_argument("what", choices=["subs", "cons", "autos", "cep"])
    st.add_argument("key")
    st.set_defaults(handler=_cmd_structure)

    si = sub.add_parser("simple", help="is the algebra simple")
    si.add_argument("key")
    si.set_defaults(handler=_cmd_simple)

    pr = sub.add_parser("primality", help="primality classification")
    pr.add_argument("key")
    pr.set_defaults(handler=_cmd_primality)

    ve = sub.add_parser("verify", help="batch verification reports")
    ve.add_argument("what", choices=sorted(_VERIFY_HANDLERS))
    ve.add_argument("--group", help="restrict 'lemmas' to one group")
    ve.add_argument("--max-size", type=int, dest="max_size",
                    help="lattice size bound for 'stone' (default 4)")
    ve.set_defaults(handler=_cmd_verify)

    va = sub.add_parser("variety", help="membership and counting")
    va_sub = va.add_subparsers(dest="action", required=True)
    vm = va_sub.add_parser("member")
    vm.add_argument("key")
    vm.add_argument("--gens", required=True,
                    help="comma separated generator keys")
    vm.set_defaults(handler=_cmd_variety)
    vc = va_sub.add_parser("count")
    vc.add_argument("--ambient", required=True,
                    choices=sorted(varieties.AMBIENTS))
    vc.set_defaults(handler=_cmd_variety)

    am = sub.add_parser("amalgam", help="amalgamation verdict tables")
    am_sub = am.add_subparsers(dest="action", required=True)
    ac = am_sub.add_parser("check")
    acg = ac.add_mutually_exclusive_group(required=True)
    acg.add_argument("--variety", help="comma separated generator keys")
    acg.add_argument("--all-subvarieties-of", dest="all_subvarieties_of",
                     choices=sorted(varieties.AMBIENTS),
                     help="the subvariety generated by each simple of the "
                          "ambient, then the whole ambient")
    ac.add_argument("--oracle", action="store_true",
                    help="cross check obstructions with the brute force "
                         "product search")
    ac.set_defaults(handler=_cmd_amalgam)

    se = sub.add_parser("search", help="enumerate algebras on a lattice")
    se.add_argument("--lattice", required=True,
                    help="catalog key or JSON file")
    se.add_argument("--require", default="SH",
                    help="comma separated suite names or statements")
    se.add_argument("--forbid", default="",
                    help="comma separated suite names or statements")
    se.add_argument("--limit", type=_positive_int, default=None)
    se.add_argument("--timeout", default=None,
                    help="wall-clock budget in seconds (default SHW_TIMEOUT)")
    se.add_argument("--order", default="row-major",
                    choices=["row-major", "column-major"])
    se.set_defaults(handler=_cmd_search)
    return p


def run(argv=None) -> CommandResult:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return CommandResult(int(e.code or 0), "")
    try:
        result = args.handler(args)
    except ShwError as e:
        return CommandResult(2, f"error: {e}")
    if args.json and result.payload is not None:
        return CommandResult(result.code, _dumps(result.payload), result.payload)
    return result


# main writes this many characters at a time: no long text is encoded whole
_WRITE_SLICE = 1 << 20


def main(argv=None) -> int:
    result = run(argv)
    if result.text:
        stream = sys.stderr if result.code == 2 else sys.stdout
        try:
            for i in range(0, len(result.text), _WRITE_SLICE):
                stream.write(result.text[i:i + _WRITE_SLICE])
            stream.write("\n")
            stream.flush()
        except BrokenPipeError:
            # the reader left early (``| head``): write nothing more, and
            # point the stream at devnull so the flush at exit stays quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
    return result.code


if __name__ == "__main__":
    raise SystemExit(main())
