"""The operations of each workload and the checks on their outputs.

An operation is one call of ``shw.cli.run(argv)`` with ``--json``.  Its
check compares the decoded payload against the data pinned in
``expected.json`` (written by ``pin.py``), or, for the capped searches,
re-verifies a seeded sample of the reported solutions with the
benchmark's own evaluator (``reference.py``).  Checks run outside the
timed region.

This module does not import ``shw`` at import time, so run.py can
list a workload's operations without loading the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("stone-scan", "dd-search", "catalog-sweep")

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# capped double-diamond searches: (phase, limit, argv after "search")
LEVEL2_LIMIT = 1000
SH_LIMIT = 200
_SEARCHES = (
    ("level2", LEVEL2_LIMIT,
     ("--lattice", "double-diamond", "--require", "SH,DQD,DM,L2,R",
      "--forbid", "St", "--order", "column-major")),
    ("sh", SH_LIMIT, ("--lattice", "double-diamond", "--require", "SH")),
)
SAMPLE_PER_SEARCH = 40

AMBIENTS = ("rdqdstsh1", "rdmsh1", "rdpcsh1")
VERIFY_WHATS = ("lemmas", "bases", "cep", "primality", "lattice")


@dataclass(frozen=True)
class Op:
    phase: str
    argv: tuple[str, ...]
    key: str  # entry in expected.json, or a search phase name


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def operations(workload: str, seed: int, expected: dict) -> list[Op]:
    """The operations of one pass, in run order.

    The seed permutes only the suite matrix; commands that share the
    program's caches (verify, count, amalgam) keep a fixed order.
    """
    if workload == "stone-scan":
        return [Op("stone", ("--json", "verify", "stone", "--max-size", "5"),
                   "stone")]
    if workload == "dd-search":
        return [Op(phase, ("--json", "search", *args, "--limit", str(limit)),
                   phase)
                for phase, limit, args in _SEARCHES]
    if workload == "catalog-sweep":
        cells = sorted(expected["matrix"])
        random.Random(seed).shuffle(cells)
        ops = []
        for cell in cells:
            key, suite = cell.split(" ")
            ops.append(Op("matrix", ("--json", "check", key, "--suite", suite),
                          cell))
        ops += [Op("verify", ("--json", "verify", what), what)
                for what in VERIFY_WHATS]
        ops += [Op("count", ("--json", "variety", "count", "--ambient", amb),
                   f"count {amb}") for amb in AMBIENTS]
        ops += [Op("amalgam", ("--json", "amalgam", "check",
                               "--all-subvarieties-of", amb, "--oracle"),
                   f"amalgam {amb}") for amb in AMBIENTS]
        return ops
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# -- summaries: the facts of a payload that the pinned data fixes -----------

def _summary(op: Op, p: dict):
    cmd = op.argv[1]
    if cmd == "check":
        first = next(({"statement": i["statement"], "witness": i["witness"]}
                      for i in p["items"] if not i["holds"]), None)
        return {"holds": p["holds"], "items": len(p["items"]),
                "first_failure": first}
    if cmd == "variety":
        return {"count": p["count"]}
    if cmd == "amalgam":
        return {"holds": p["claim"]["holds"],
                "counterexamples": p["claim"]["counterexamples"],
                "surveys": [[s["generators"], s["amalgams"], s["obstructed"],
                             s["consistent"]] for s in p["surveys"]]}
    what = op.argv[2]
    if what == "stone":
        scan = p["scan"]
        return {"simples_holds": p["simples"]["holds"],
                "complete": scan["complete"], "holds": scan["holds"],
                "tallies": [[t["lattice"], t["size"], t["arrows"],
                             t["negations"], t["screened"],
                             len(t["violations"])] for t in scan["tallies"]]}
    if what == "lemmas":
        return {"holds": p["holds"],
                "groups": [[g["name"], g["holds"], len(g["items"])]
                           for g in p["groups"]]}
    if what == "bases":
        return {"ok": p["ok"], "rows": len(p["rows"]),
                "discrepancies": [[r["slug"], r["base_index"], d]
                                  for r in p["rows"]
                                  for d in r["discrepancies"]]}
    if what == "cep":
        return {"ok": p["ok"],
                "reports": [[r["algebra"], r["ok"]] for r in p["reports"]]}
    if what == "primality":
        return {"ok": p["ok"], "verdicts": p["verdicts"], "primal": p["primal"]}
    if what == "lattice":
        return {"ok": p["ok"],
                "entries": [[e["key"], e["ok"]] for e in p["entries"]]}
    raise ValueError(f"no summary for {op.argv}")


def pinned_entry(op: Op, code: int, text: str) -> dict:
    """What pin.py records for an operation."""
    return {"code": code, "summary": _summary(op, json.loads(text))}


# -- checks -----------------------------------------------------------------

def check(op: Op, code: int | None, text: str, expected: dict,
          seed: int) -> list[str]:
    """Problems with one operation's output; empty when it is correct."""
    if code is None:
        return [f"{op.key}: crashed: {text}"]
    if op.phase in ("level2", "sh"):
        return _check_search(op, code, text, seed)
    table = expected["matrix"] if op.phase == "matrix" else expected["other"]
    want = table[op.key]
    if code != want["code"]:
        return [f"{op.key}: exit code {code}, expected {want['code']}"]
    try:
        got = _summary(op, json.loads(text))
    except (ValueError, KeyError, TypeError) as e:
        return [f"{op.key}: unreadable payload ({type(e).__name__}: {e})"]
    if json.loads(json.dumps(got)) != want["summary"]:
        return [f"{op.key}: output differs from the pinned data"]
    return []


def search_outcome(text: str) -> dict:
    """How far a capped search got, as reported in its payload."""
    p = json.loads(text)
    return {"complete": p["complete"], "reason": p["reason"],
            "nodes": p["nodes"], "solutions": len(p["solutions"])}


def _check_search(op: Op, code: int, text: str, seed: int) -> list[str]:
    import reference
    from shw import catalog
    from shw.algebra import to_json_dict
    from shw.equations import SUITES

    limit = {phase: lim for phase, lim, _ in _SEARCHES}[op.phase]
    if code != 0:
        return [f"{op.key}: exit code {code}, expected 0"]
    try:
        p = json.loads(text)
        sols = p["solutions"]
        keys = [json.dumps([s.get("neg"), s["arrow"]]) for s in sols]
    except (ValueError, KeyError, TypeError) as e:
        return [f"{op.key}: unreadable payload ({type(e).__name__}: {e})"]
    errs = []
    if p["complete"] or p["reason"] != "limit":
        errs.append(f"{op.key}: expected complete false, reason limit; got "
                    f"{p['complete']}, {p['reason']}")
    if len(sols) != limit:
        errs.append(f"{op.key}: {len(sols)} solutions, expected {limit}")
    if len(set(keys)) != len(sols):
        errs.append(f"{op.key}: duplicate solutions")
    dd = to_json_dict(catalog.double_diamond())
    fields = ("elements", "join", "meet", "bot", "top")
    if any(s.get(f) != dd[f] for s in sols for f in fields):
        errs.append(f"{op.key}: a solution is not on the double diamond")
        return errs

    def stmts(names: str):
        return [s for name in names.split(",") if name
                for s in SUITES[name].items]

    argv = list(op.argv)
    require = stmts(argv[argv.index("--require") + 1])
    forbid = stmts(argv[argv.index("--forbid") + 1]) if "--forbid" in argv else []
    rng = random.Random(f"{seed}:{op.phase}")
    for s in rng.sample(sols, min(SAMPLE_PER_SEARCH, len(sols))):
        if not all(reference.holds(s, st) for st in require):
            errs.append(f"{op.key}: {s['name']} fails a required statement")
        if any(reference.holds(s, st) for st in forbid):
            errs.append(f"{op.key}: {s['name']} satisfies a forbidden statement")
    return errs
