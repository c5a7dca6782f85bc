from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

from shw import catalog, cli, modelsearch
from shw.algebra import from_json_dict, loads, to_json_dict
from shw.catalog import get
from shw.cli import main, run
from shw.equations import Suite, satisfies
from shw.modelsearch import build_spec, enumerate_algebras
from shw.structure import congruence_lattice
from shw.terms import parse_statement

SRC = Path(__file__).resolve().parent.parent / "src"
SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _validator(schema_name: str) -> Draft7Validator:
    """A validator for the published schema, resolving its references
    to the other published schemas."""
    registry = Registry().with_resources(
        (p.name, Resource.from_contents(json.loads(p.read_text())))
        for p in SCHEMA_DIR.glob("*.json"))
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    return Draft7Validator(schema, registry=registry)


def test_eval_prints_value(capsys):
    assert main(["eval", "D2", "0 -> 1"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_eval_with_assignment():
    r = run(["eval", "D2", "(x v y) -> 1", "--assign", "x=a,y=b"])
    assert (r.code, r.text) == (0, "1")
    r = run(["eval", "L3dm", "x'*", "--assign", "x=a"])
    assert (r.code, r.text) == (0, "0")


def test_eval_errors_keep_their_order():
    # the argument is evaluated before a missing table is reported, and
    # x+ reports a missing negation before a missing arrow
    cases = [(["eval", "double-diamond", "q*"], "error: unbound variable 'q'"),
             (["eval", "L1", "q'"], "error: unbound variable 'q'"),
             (["eval", "double-diamond", "q -> 0"], "error: unbound variable 'q'"),
             (["eval", "L1", "x+", "--assign", "x=a"], "error: L1: no negation"),
             # a bare lattice: neither table
             (["eval", "double-diamond", "x+", "--assign", "x=a"],
              "error: double-diamond: no negation"),
             (["eval", "double-diamond", "(x')'*", "--assign", "x=a"],
              "error: double-diamond: no negation"),
             (["eval", "double-diamond", "x*", "--assign", "x=a"],
              "error: double-diamond: no arrow operation")]
    for argv, text in cases:
        r = run(argv)
        assert (r.code, r.text) == (2, text), argv
    r = run(["eval", "L3dm", "x+", "--assign", "x=a"])
    assert (r.code, r.text) == (0, "1")


def test_check_identity_exit_codes():
    assert run(["check", "L10dm", "--identity", "x -> y = y -> x"]).code == 0
    r = run(["check", "L7dm", "--identity", "x -> y = y -> x"])
    assert r.code == 1
    assert "[x=0, y=a]" in r.text


def test_check_suite():
    r = run(["check", "L3dm", "--suite", "RDMSH2"])
    assert r.code == 0
    assert all(line.startswith("ok") for line in r.text.splitlines())
    assert run(["check", "L7dm", "--suite", "Co"]).code == 1


def test_catalog_list():
    r = run(["catalog", "list"])
    lines = r.text.splitlines()
    assert r.code == 0 and len(lines) == 38
    assert lines[0].split()[0] == "2"
    # list takes no key: one given is an error, not ignored
    for argv in (["catalog", "list", "x"], ["--json", "catalog", "list", "2e"],
                 ["catalog", "list", ""]):
        r = run(argv)
        assert (r.code, r.text) == (2, "error: catalog list takes no key"), argv


def test_catalog_export_round_trip():
    r = run(["catalog", "export", "L3dm"])
    assert r.code == 0
    back = from_json_dict(json.loads(r.text))
    assert to_json_dict(back) == to_json_dict(get("L3dm"))


def test_structure_commands():
    r = run(["structure", "cons", "D1"])
    assert r.code == 0 and len(r.text.splitlines()) == 2
    r = run(["structure", "subs", "2e"])
    assert r.text == "{0,1}"
    r = run(["structure", "autos", "D1"])
    assert len(r.text.splitlines()) == 2
    assert run(["structure", "cep", "L5dm"]).code == 0


def test_structure_autos_matches_golden(capsys):
    # every catalog key's --json automorphism list, byte for byte
    golden = json.loads((GOLDEN / "structure" / "autos.json").read_text())
    assert list(golden) == list(catalog.keys())
    for key, payload in golden.items():
        assert main(["--json", "structure", "autos", key]) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n", key


_STRUCTURE_REPORTS = {"subs": ["structure", "subs"], "cons": ["structure", "cons"],
                      "cep": ["structure", "cep"], "simple": ["simple"],
                      "primality": ["primality"]}


@pytest.mark.parametrize("name", list(_STRUCTURE_REPORTS))
def test_structure_report_matches_golden(name):
    # every catalog key's --json report and exit code, byte for byte; where
    # the command refuses the key (exit 2), its error text
    golden = json.loads((GOLDEN / "structure" / f"{name}.json").read_text())
    assert list(golden) == list(catalog.keys())
    for key, want in golden.items():
        r = run(["--json", *_STRUCTURE_REPORTS[name], key])
        text = want["error"] if want["exit"] == 2 else json.dumps(want["output"], indent=2)
        assert (r.code, r.text) == (want["exit"], text), key


def test_simple():
    assert run(["simple", "D1"]).code == 0
    r = run(["simple", "double-diamond"])
    assert r.code == 1
    assert "not simple" in r.text


@pytest.mark.parametrize("key", catalog.keys())
def test_simple_matches_the_congruence_count(key):
    # the verdict comes from structure.is_simple; the reference reads it
    # off the whole congruence lattice
    count = len(congruence_lattice(get(key)))
    simple = count == 2
    want = cli.CommandResult(0 if simple else 1,
                             "simple" if simple else f"not simple ({count} congruences)",
                             {"schema": "shw.simple/1", "algebra": key,
                              "simple": simple, "congruences": count})
    assert run(["simple", key]) == want


def test_primality_line():
    r = run(["primality", "L9dm"])
    assert r.code == 0
    assert r.text.startswith("semiprimal")


def test_verify_lemmas():
    r = run(["verify", "lemmas"])
    assert r.code == 0 and len(r.text.splitlines()) == 3
    r = run(["verify", "lemmas", "--group", "stone-property"])
    assert r.code == 0 and len(r.text.splitlines()) == 1


def test_verify_bases_reports_known_discrepancy():
    r = run(["verify", "bases"])
    assert r.code == 1
    failing = [l for l in r.text.splitlines() if l.startswith("FAIL")]
    assert len(failing) == 1 and "arrow-exchange" in failing[0]
    assert "[x=0, y=a, z=0]" in r.text
    # corollaries is an accepted alias for the same report
    assert run(["verify", "corollaries"]).code == 1


def test_verify_bases_same_report_under_jobs():
    one, two = (run(["--json", "--jobs", jobs, "verify", "bases"]) for jobs in ("1", "2"))
    assert (two.code, two.payload) == (one.code, one.payload)
    assert one.code == 1 and len(one.payload["rows"]) > 1


def test_verify_lattice_cep_primality():
    assert run(["verify", "lattice"]).code == 0
    assert run(["verify", "cep"]).code == 0
    r = run(["verify", "primality"])
    assert r.code == 0
    assert "reading dm-and-dp: matches" in r.text
    assert "reading dm-only: differs" in r.text


def test_verify_stone():
    r = run(["verify", "stone", "--max-size", "3"])
    assert r.code == 0
    assert r.text.splitlines()[-1] == "scan of size <= 3: complete, no violators"


def test_verify_stone_renders_each_violator(monkeypatch):
    # a target that fails on some screened algebras: each violation is an
    # algebra named <lattice>#<i> that fails it
    target = parse_statement("x -> y = y -> x")
    suite = modelsearch.get_suite
    monkeypatch.setattr(modelsearch, "get_suite", lambda name: Suite(
        name, (target,)) if name == "St" else suite(name))
    r = run(["--json", "verify", "stone", "--max-size", "4"])
    doc = json.loads(r.text)
    _validator("verify-stone.schema.json").validate(doc)
    assert r.code == 1 and doc["scan"]["complete"] and not doc["scan"]["holds"]
    found = 0
    for t in doc["scan"]["tallies"]:
        for v in t["violations"]:
            alg = from_json_dict(v)
            assert re.fullmatch(re.escape(t["lattice"]) + r"#\d+", alg.name), alg.name
            assert int(alg.name.split("#")[1]) < t["screened"]
            assert not satisfies(alg, target).holds
            found += 1
    assert found >= 10


def test_verify_stone_states_one_size_range():
    for size in ("-1", "0", "1", "7", "9"):
        r = run(["verify", "stone", "--max-size", size])
        assert r.code == 2, size
        assert r.text.startswith("error:") and "between 2 and 6" in r.text, r.text


def test_eval_rejects_repeated_or_unnamed_variables():
    for assign, why in (("x=a,x=b", "bound twice"), ("x=a, x =a", "bound twice"),
                        ("=a", "no variable name"), ("x=a, =b", "no variable name")):
        r = run(["eval", "D2", "x", "--assign", assign])
        assert r.code == 2, assign
        assert r.text.startswith("error:") and why in r.text, r.text


def test_variety_commands():
    assert run(["variety", "member", "2e", "--gens", "L1dm"]).code == 0
    assert run(["variety", "member", "L2dm", "--gens", "L1dm"]).code == 1
    r = run(["variety", "count", "--ambient", "rdpcsh1"])
    assert (r.code, r.text) == (0, "1360")


def test_amalgam_check_witnessed_variety():
    r = run(["amalgam", "check", "--variety", "D1"])
    assert r.code == 0
    assert r.text.splitlines()[-1].endswith("computed: agrees")


def test_amalgam_check_obstructed_variety():
    r = run(["amalgam", "check", "--variety", "L1dm,L2dm", "--oracle"])
    assert r.code == 1
    assert "(2e; L1dm, L2dm) obstructed" in r.text
    assert "fails for V(L1dm,L2dm)" in r.text


def test_search_exit_codes():
    r = run(["search", "--lattice", "L1", "--require", "SH,Co"])
    assert r.code == 0
    assert r.text.splitlines()[0].startswith("1 solutions, exhausted")
    assert run(["search", "--lattice", "2", "--require", "SH",
                "--forbid", "SH"]).code == 1
    assert run(["search", "--lattice", "double-diamond",
                "--timeout", "0.0"]).code == 3


def test_search_from_file(tmp_path):
    doc = to_json_dict(get("double-diamond"))
    path = tmp_path / "dd.json"
    path.write_text(json.dumps(doc))
    r = run(["search", "--lattice", str(path), "--require", "SH,DQD,DM,L2,R",
             "--forbid", "St", "--limit", "1", "--order", "column-major"])
    assert r.code == 0
    found = from_json_dict(json.loads(r.text.splitlines()[1]))
    assert found.size == 7 and found.has_neg


# SHA-256 of the whole --json text of the two capped double-diamond
# searches, with one process; taken with the stdlib's indented encoder
DD_SEARCH_TEXT = {
    ("--require", "SH,DQD,DM,L2,R", "--forbid", "St", "--order", "column-major",
     "--limit", "1000"):
        "278afca0e7d9a887520e765f3793386de0e58f17d84b90152ae6b2c3995800f7",
    ("--require", "SH", "--limit", "200"):
        "c8418e0bbe754b8c5756cbba0c267ddb32dacff6e19745060d08f297a35215c1",
}


@pytest.mark.parametrize("flags", sorted(DD_SEARCH_TEXT), ids=" ".join)
def test_capped_search_json_text_is_pinned(flags):
    r = run(["--json", "search", "--lattice", "double-diamond", *flags])
    assert r.code == 0
    assert hashlib.sha256(r.text.encode()).hexdigest() == DD_SEARCH_TEXT[flags]


# exit code and SHA-256 of the text and --json text of the oracle-checked
# amalgam survey of every subvariety of each ambient; the JSON is too
# large for goldens
AMALGAM_SURVEY_TEXT = {
    "rdqdstsh1": (1, "6d7fb747e3154acf2c30d39b94919b5cf52a345c654bfc8117eb559f010b4e34",
                  "a4db93839cb2b98d9f15d66cd05280f6fe0bc436b878f9bb71260b5af78b6395"),
    "rdmsh1": (1, "22c6a8aec7c273d94868aec861a381658743c15f3f4ad227b6622ff7d5cf1e24",
               "9df6b04f67844f28b6a46ab9e211f084038e841c9bbf16b7b4b94252b737b686"),
    "rdpcsh1": (1, "c6facf8a69cac504f0ebf2877fab05824e2eb7f6289cdd85e0dee8381f8a2a26",
                "c5ab1b760bb88df8203829674cb1eb4f6c10a8eb90472593be2d48638f0ed14b"),
    "rdmh1": (1, "fe6dbdc17aba2a5279aa1c2d783f40f2043f218e409a63a641b0d3a5b80f913f",
              "00f2f34eee1503831a7bf731f92c63e62555c6d2b32ce60a7154a609b9cd5d48"),
    "rdmcmsh1": (1, "ce276e08dcee5eced3775e769e837c728f5ee7d7ece835067ee2669dec1f27ac",
                 "179d3e9c38c1a299d85c5c49f2d847654e0621993584db1696646d270c0d55ad"),
}


@pytest.mark.parametrize("ambient", sorted(AMALGAM_SURVEY_TEXT))
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_amalgam_survey_text_is_pinned(ambient, as_json):
    argv = ["amalgam", "check", "--all-subvarieties-of", ambient, "--oracle"]
    r = run(["--json", *argv] if as_json else argv)
    code, *digests = AMALGAM_SURVEY_TEXT[ambient]
    assert r.code == code
    assert hashlib.sha256(r.text.encode()).hexdigest() == digests[as_json]


def test_closed_stdout_ends_quietly_with_the_command_code():
    # about 0.5 MB of JSON, more than a pipe holds: the write meets the
    # closed read end whatever the timing
    argv = [sys.executable, "-m", "shw.cli", "--json", "search",
            "--lattice", "double-diamond", "--require", "SH", "--limit", "200"]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(SRC), os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 0


def test_main_writes_a_long_text_in_slices(monkeypatch):
    # about 5 MiB of JSON: no write may hand the stream more than one slice
    argv = ["--json", "search", "--lattice", "double-diamond", "--require", "SH",
            "--limit", "2000"]
    written = []

    class Recorder:
        def write(self, s):
            written.append(s)
            return len(s)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(argv) == 0
    want = run(argv).text + "\n"
    assert len(want) > 4 * cli._WRITE_SLICE
    assert max(map(len, written)) <= cli._WRITE_SLICE
    assert "".join(written) == want


def _fresh_python(code: str) -> str:
    """What ``code`` prints in a new interpreter that imports from ``src``."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=env, text=True, check=True, timeout=60).stdout


def test_cli_import_leaves_the_process_pool_out():
    # multiprocessing is loaded by a --jobs search only, not by every command
    assert _fresh_python(
        "import sys, shw.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    ) == "[]\n"


def test_cli_import_builds_no_suite_library():
    # the named statements' library and its programs are built by the first
    # named-suite check, not at import
    assert _fresh_python(
        "import shw.cli; from shw import equations as e; "
        "print(e._library.cache_info().currsize, e._group.cache_info().currsize)"
    ) == "0 0\n"


def test_search_rejects_malformed_lattice_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x", "elements": [')
    r = run(["search", "--lattice", str(path), "--require", "SH"])
    assert r.code == 2 and r.text.startswith("error:")
    assert "invalid JSON" in r.text


@pytest.mark.parametrize("field, value", [
    ("arrow", 5), ("arrow", ["ab"]), ("neg", None), ("neg", ["x"])],
    ids=["arrow-int", "arrow-str-row", "neg-null", "neg-str"])
def test_search_rejects_malformed_arrow_or_neg(tmp_path, field, value):
    doc = to_json_dict(get("D2"))
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    r = run(["search", "--lattice", str(path), "--require", "SH"])
    assert r.code == 2 and "\n" not in r.text
    assert r.text.startswith("error: malformed algebra object: "), r.text


def test_search_rejects_unreadable_lattice_file(tmp_path):
    r = run(["search", "--lattice", str(tmp_path), "--require", "SH"])
    assert r.code == 2 and r.text.startswith("error: cannot read")
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    r = run(["search", "--lattice", str(path), "--require", "SH"])
    assert r.code == 2 and r.text.startswith("error: cannot read")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_search_rejects_a_lattice_that_is_not_distributive(tmp_path, as_json):
    # N5, 0 < a < c < 1 and 0 < b < 1: a bounded lattice, but not distributive
    join = [[0, 1, 2, 3, 4], [1, 1, 4, 3, 4], [2, 4, 2, 4, 4], [3, 3, 4, 3, 4], [4] * 5]
    meet = [[0] * 5, [0, 1, 0, 1, 1], [0, 0, 2, 0, 2], [0, 1, 0, 3, 3], [0, 1, 2, 3, 4]]
    path = tmp_path / "n5.json"
    path.write_text(json.dumps({"name": "N5", "elements": ["0", "a", "b", "c", "1"],
                                "join": join, "meet": meet, "bot": 0, "top": 4}))
    argv = ["search", "--lattice", str(path)]
    r = run(["--json", *argv] if as_json else argv)
    assert (r.code, r.text) == (2, "error: N5: not a bounded distributive lattice "
                                   "(meet-distributes)")


# the capped level-2 search: its solutions share tables and rows
LEVEL2_50 = ("--lattice", "double-diamond", "--require", "SH,DQD,DM,L2,R",
             "--forbid", "St", "--limit", "50")


def test_search_renders_each_solution_once_in_both_modes():
    for args, count in ((("--lattice", "L1", "--require", "SH"), 10),
                        (LEVEL2_50, 50)):
        argv = ["search", *args]
        text = run(argv).text.splitlines()
        doc = json.loads(run(["--json"] + argv).text)
        assert [json.loads(line) for line in text[1:]] == doc["solutions"]
        assert len(text) == 1 + count


def test_shared_search_lists_keep_each_solution_its_own():
    # one list per distinct table and row: each solution still reads as
    # its own algebra
    result = enumerate_algebras(build_spec(get("double-diamond"),
                                           ["SH", "DQD", "DM", "L2", "R"],
                                           ["St"], max_solutions=50))
    doc = json.loads(run(["--json", "search", *LEVEL2_50]).text)
    assert len(result.solutions) == 50
    assert doc["solutions"] == [to_json_dict(s) for s in result.solutions]


# a three-element chain whose name and labels need JSON escapes
ESCAPED = {"name": 'la "chaîne"', "elements": ["0", 'a"é', "1"],
           "join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
           "meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]], "bot": 0, "top": 2}

# the cases of the search's own writer, with their solution counts: arrow
# only, negation only, both, none, neither table searched, a lattice file
# with escapes (ESCAPED, as escaped.json), and a timeout with solutions
SEARCH_JSON_CASES = {
    "arrow": (("--lattice", "L1", "--require", "SH"), 0, 10),
    "negation": (("--lattice", "D1", "--require", "DQD,DM"), 0, 2),
    "both": (LEVEL2_50, 0, 50),
    "none": (("--lattice", "2", "--require", "SH", "--forbid", "SH"), 1, 0),
    "bare": (("--lattice", "2", "--require", ""), 0, 1),
    "escaped": (("--lattice", "escaped.json", "--require", "SH,DQD"), 0, 20),
    "timeout": (LEVEL2_50, 3, 50),
}
# (options, order) of each run; the ids number the options as pytest would
SEARCH_RUNS = [((), "row-major"), (("--jobs", "2"), "row-major"), ((), "column-major")]


@pytest.mark.parametrize("case", sorted(SEARCH_JSON_CASES))
@pytest.mark.parametrize("options,order,as_json", [
    pytest.param(options, order, as_json, id=f"{'' if as_json else 'text-'}options{i}-{order}")
    for as_json in (True, False) for i, (options, order) in enumerate(SEARCH_RUNS)])
def test_search_json_text_is_the_stdlib_text(monkeypatch, tmp_path, case, options, order,
                                             as_json):
    args, code, count = SEARCH_JSON_CASES[case]
    (tmp_path / "escaped.json").write_text(json.dumps(ESCAPED))
    monkeypatch.chdir(tmp_path)
    if code == 3:
        # a search cut short by its budget keeps what it found
        search = cli.enumerate_algebras
        monkeypatch.setattr(cli, "enumerate_algebras", lambda *a, **k: replace(
            search(*a, **k), complete=False, reason="timeout"))
    mode = ["--json"] if as_json else []
    r = run([*options, *mode, "search", *args, "--order", order])
    if as_json:
        doc = json.loads(r.text)
        assert r.text == json.dumps(doc, indent=2, sort_keys=True)
        solutions = doc["solutions"]
    else:
        # a header line, then one line per solution
        header, *lines = r.text.split("\n")
        assert header.startswith(f"{count} solutions, ")
        solutions = [json.loads(line) for line in lines]
        assert lines == [json.dumps(s, sort_keys=True) for s in solutions]
    assert r.code == code and len(solutions) == count
    # the library's algebras, not the writer's rows
    opts = dict(zip(args[::2], args[1::2]))
    key = opts["--lattice"]
    lattice = get(key) if key in catalog.keys() else loads(Path(key).read_text())
    spec = build_spec(lattice, *([s for s in opts.get(o, "").split(",") if s]
                                 for o in ("--require", "--forbid")),
                      max_solutions=int(opts["--limit"]) if "--limit" in opts else None)
    assert solutions == [to_json_dict(s) for s in enumerate_algebras(spec).solutions]


@pytest.mark.parametrize("width", [2, 7, 16])
def test_distinct_rows_index_back_to_the_rows(width):
    # integer row keys up to width 15, np.unique(axis=0) past it
    rows = np.random.default_rng(width).integers(0, width, (200, width), np.int8)
    rows[100:] = rows[::-1][100:]
    lists, ids = cli._distinct(rows)
    assert sorted(map(tuple, lists)) == sorted(set(map(tuple, rows.tolist())))
    assert [lists[j] for j in ids] == rows.tolist()


def test_verify_lemmas_rejects_unknown_group():
    r = run(["verify", "lemmas", "--group", "nope"])
    assert r.code == 2 and r.text.startswith("error: unknown lemma group nope")
    assert "known: dqd-basic, regular-dm, stone-property" in r.text
    assert run(["verify", "lemmas", "--group", "stone-property"]).code == 0


def test_amalgam_check_rejects_empty_generator_list():
    r = run(["amalgam", "check", "--variety", ""])
    assert (r.code, r.text) == (2, "error: --variety: empty generator list")


def test_blank_generator_names_are_rejected():
    for argv, option in ((["amalgam", "check", "--variety"], "--variety"),
                         (["variety", "member", "2e", "--gens"], "--gens")):
        for raw in ("2e,", ",2e", "2e,,D1", "2e, "):
            r = run(argv + [raw])
            assert (r.code, r.text) == (2, f"error: {option}: empty generator name"), raw
        for raw in ("", " "):
            r = run(argv + [raw])
            assert (r.code, r.text) == (2, f"error: {option}: empty generator list"), raw
        # a generator named twice, also after stripping, in both modes
        for raw, key in (("2e,2e", "2e"), ("L1dm,2e, L1dm", "L1dm")):
            for mode in ([], ["--json"]):
                r = run(mode + argv + [raw])
                assert (r.code, r.text) == (
                    2, f"error: {option}: generator {key!r} is named twice"), (mode, raw)


@pytest.mark.parametrize("spaced, twin", [
    (["variety", "member", "2e", "--gens", "L1dm, L2dm"],
     ["variety", "member", "2e", "--gens", "L1dm,L2dm"]),
    (["amalgam", "check", "--variety", "L1dm, L2dm"],
     ["amalgam", "check", "--variety", "L1dm,L2dm"]),
    (["verify", "lemmas", "--group", " dqd-basic"],
     ["verify", "lemmas", "--group", "dqd-basic"]),
    (["eval", "L1dm", "x", "--assign", "x = a"],
     ["eval", "L1dm", "x", "--assign", "x=a"]),
    (["search", "--lattice", "L1", "--require", "SH, Co"],
     ["search", "--lattice", "L1", "--require", "SH,Co"]),
    (["search", "--lattice", "L1", "--forbid", " Co ,x' = x"],
     ["search", "--lattice", "L1", "--forbid", "Co,x' = x"]),
])
def test_list_entries_are_stripped(spaced, twin):
    for mode in ([], ["--json"]):
        got, want = run(mode + spaced), run(mode + twin)
        # a search's text reports its time, which two runs need not share
        got_text, want_text = (re.sub(r", \d+\.\d\ds\)$", ")", r.text, flags=re.M)
                               for r in (got, want))
        assert (got.code, got_text) == (want.code, want_text), spaced


@pytest.mark.parametrize("flag", ["--require", "--forbid"])
@pytest.mark.parametrize("raw", ["SH,", ",SH", "SH,,St", "SH, "])
def test_search_rejects_blank_statements(flag, raw):
    r = run(["search", "--lattice", "2", flag, raw])
    assert (r.code, r.text) == (2, f"error: {flag}: empty statement")


def test_search_empty_option_means_no_statement():
    doc = json.loads(run(["--json", "search", "--lattice", "2", "--require", "",
                          "--forbid", ""]).text)
    assert (doc["require"], doc["forbid"], len(doc["solutions"])) == ([], [], 1)


@pytest.mark.parametrize("argv, option, target", [
    (["verify", "stone", "--group", "dqd-basic", "--max-size", "3"], "--group", "lemmas"),
    (["verify", "cep", "--max-size", "9"], "--max-size", "stone"),
    (["verify", "lemmas", "--max-size", "4"], "--max-size", "stone"),
    (["verify", "bases", "--group", "dqd-basic"], "--group", "lemmas"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_verify_rejects_options_of_other_targets(argv, option, target):
    r = run(argv)
    assert (r.code, r.text) == (2, f"error: {option} applies only to 'verify {target}'")


def test_marker_filtered_ambients():
    for amb in ("rdmh1", "rdmcmsh1"):
        assert run(["variety", "count", "--ambient", amb]).text == "5"
        doc = json.loads(run(["--json", "amalgam", "check",
                              "--all-subvarieties-of", amb, "--oracle"]).text)
        assert [s["obstructed"] for s in doc["surveys"]] == [0, 0, 0, 2]
        assert all(s["consistent"] for s in doc["surveys"])


def test_search_rejects_bad_timeout_environment(monkeypatch):
    for bad in ("abc", "-3"):
        monkeypatch.setenv("SHW_TIMEOUT", bad)
        r = run(["search", "--lattice", "2", "--require", "SH"])
        assert r.code == 2 and r.text.startswith("error:")
        assert "SHW_TIMEOUT" in r.text


def test_search_validates_timeout_jobs_and_suite_names(capsys):
    for bad in ("-5", "nan", "abc"):
        r = run(["search", "--lattice", "2", "--timeout", bad])
        assert r.code == 2 and r.text.startswith("error: --timeout"), bad
    for bad in ("0", "-3", "two"):
        assert run(["--jobs", bad, "search", "--lattice", "2"]).code == 2, bad
        # argparse names the option, not the library's max_solutions
        assert run(["search", "--lattice", "2", "--limit", bad]).code == 2, bad
        err = capsys.readouterr().err
        assert f"argument --limit: expected a positive integer, got '{bad}'" in err
    for flag in ("--require", "--forbid"):
        r = run(["search", "--lattice", "2", flag, "SHX"])
        assert r.code == 2 and r.text.startswith("error: unknown suite 'SHX'")
    r = run(["search", "--lattice", "2", "--require", "SH, Co"])
    assert r.code == 0 and r.text.startswith("1 solutions")


def test_timeout_is_one_budget_across_jobs():
    # every shard stops at the same deadline instead of starting a fresh
    # one; the search finds nothing in its budget, so rendering costs nothing.
    # Forbidding a required identity, with its variables renamed so that it
    # is not the same statement, leaves no solution, and no pruning can see
    # that before the last arrow cell it reads is assigned.  SH alone has
    # 262,660 leaves, which the batched leaf check rejects inside 2 s over
    # two shards; SH and DQD have 1,050,640
    t0 = time.monotonic()
    r = run(["--json", "--jobs", "2", "search", "--lattice", "double-diamond",
             "--require", "SH,DQD", "--forbid", "z ^ (z -> w) = z ^ w",
             "--timeout", "2"])
    elapsed = time.monotonic() - t0
    doc = json.loads(r.text)
    assert r.code == 3 and doc["reason"] == "timeout" and not doc["solutions"]
    assert elapsed < 2 + 1.5, elapsed


def test_level1_stone_search_finishes_in_row_major_order():
    # L1, R and St read the whole negation and the arrow's first column;
    # the search checks them as those cells are assigned, not after the
    # row that holds the column's last cell
    r = run(["--json", "search", "--lattice", "double-diamond", "--require",
             "SH,DQD,DM,L1,R", "--forbid", "St", "--timeout", "10"])
    doc = json.loads(r.text)
    assert (r.code, doc["complete"], doc["reason"], doc["solutions"]) == (
        1, True, "exhausted", [])


def test_json_payloads_are_versioned():
    r = run(["--json", "check", "L7dm", "--identity", "x -> y = y -> x"])
    doc = json.loads(r.text)
    assert doc["schema"] == "shw.check/1"
    assert doc["items"][0]["witness"] == {"x": "0", "y": "a"}
    r = run(["--json", "variety", "count", "--ambient", "rdmsh1"])
    assert json.loads(r.text) == {"schema": "shw.variety-count/1",
                                  "ambient": "rdmsh1", "count": 9504}
    r = run(["--json", "search", "--lattice", "2", "--require", "SH"])
    doc = json.loads(r.text)
    assert doc["schema"] == "shw.search/1"
    assert [s["name"] for s in doc["solutions"]] == ["2#0", "2#1"]


def test_usage_and_input_errors(capsys):
    assert run(["simple", "nope"]).code == 2
    assert run(["catalog", "export"]).code == 2
    assert run(["eval", "D2", "x", "--assign", "x=z"]).code == 2
    assert run(["check", "L1dm"]).code == 2          # needs --suite or --identity
    assert run(["verify", "everything"]).code == 2   # unknown report
    assert main(["simple", "nope"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "unknown catalog key" in out.err


# good and bad argv in turn; the bad ones fail inside argparse (exit 2)
# or in a handler (exit 2 with an error line)
_INTERLEAVED = [
    ["frobnicate"],
    ["check", "L1dm", "--suite", "SH"],
    ["check", "L1dm"],
    ["--json", "check", "D2", "--identity", "x -> x = 1"],
    ["--jobs", "0", "verify", "bases"],
    ["--json", "search", "--lattice", "2", "--require", "SH"],
    ["--jobs", "x", "search", "--lattice", "2"],
    ["amalgam", "check", "--variety", "L1dm,L2dm", "--oracle"],
    ["check", "D2", "--suite", "nope"],
    ["amalgam", "check"],
    ["verify", "stone", "--max-size", "3"],
    ["search", "--lattice", "nope"],
    ["--json", "amalgam", "check", "--variety", "D2"],
    ["check", "L1dm", "--suite", "SH"],
]


def test_reused_parser_leaks_no_state(monkeypatch, capsys):
    assert cli._build_parser() is cli._build_parser()

    def results():
        out = []
        for argv in _INTERLEAVED:
            r = run(argv)
            out.append((r, capsys.readouterr().err))
        return out

    shared = results()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert shared == results()
    argparse_errors = [err for r, err in shared if r.code == 2 and not r.text]
    assert len(argparse_errors) == 6
    assert all("error:" in err for err in argparse_errors)


_SCHEMA_CASES = [
    ("algebra.schema.json", ["catalog", "export", "L3dm"]),
    ("catalog-list.schema.json", ["catalog", "list"]),
    ("eval.schema.json", ["eval", "D2", "x -> y", "--assign", "x=a,y=b"]),
    ("check.schema.json", ["check", "L7dm", "--suite", "Co"]),
    ("structure.schema.json", ["structure", "subs", "D1"]),
    ("structure.schema.json", ["structure", "cons", "L5dm"]),
    ("structure.schema.json", ["structure", "autos", "D2"]),
    ("structure.schema.json", ["structure", "cep", "2e"]),
    ("simple.schema.json", ["simple", "L1dm"]),
    ("primality.schema.json", ["primality", "D1"]),
    ("verify-lemmas.schema.json", ["verify", "lemmas"]),
    ("verify-bases.schema.json", ["verify", "bases"]),
    ("verify-lattice.schema.json", ["verify", "lattice"]),
    ("verify-cep.schema.json", ["verify", "cep"]),
    ("verify-primality.schema.json", ["verify", "primality"]),
    ("verify-stone.schema.json", ["verify", "stone", "--max-size", "3"]),
    ("variety-member.schema.json", ["variety", "member", "2e", "--gens", "D1"]),
    ("variety-count.schema.json", ["variety", "count", "--ambient", "rdmsh1"]),
    ("amalgam.schema.json", ["amalgam", "check", "--variety", "L1dm,L2dm",
                             "--oracle"]),
    ("search.schema.json", ["search", "--lattice", "2", "--require", "SH"]),
]


@pytest.mark.parametrize("schema_name,argv", _SCHEMA_CASES,
                         ids=[" ".join(c[1]) for c in _SCHEMA_CASES])
def test_payload_matches_published_schema(schema_name, argv):
    r = run(["--json"] + argv)
    _validator(schema_name).validate(json.loads(r.text))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_search_jobs_insensitive(jobs):
    r = run(["--json", "--jobs", jobs, "search", "--lattice", "L1",
             "--require", "SH"])
    doc = json.loads(r.text)
    assert [s["name"] for s in doc["solutions"]] == [f"L1#{i}" for i in range(10)]


@pytest.mark.parametrize("ambient", ["rdqdstsh1", "rdmsh1", "rdpcsh1", "rdmh1", "rdmcmsh1"])
@pytest.mark.parametrize("suffix,flags", [("txt", []), ("json", ["--json"])])
def test_variety_count_matches_golden(ambient, suffix, flags, capsys):
    assert main(flags + ["variety", "count", "--ambient", ambient]) == 0
    golden = GOLDEN / "variety" / f"count-{ambient}.{suffix}"
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize("golden,argv", [
    ("verify/bases", ["verify", "bases"]),
    ("amalgam/variety-L1dm-L2dm-oracle",
     ["amalgam", "check", "--variety", "L1dm,L2dm", "--oracle"]),
])
@pytest.mark.parametrize("suffix,flags", [("txt", []), ("json", ["--json"])])
def test_failing_report_matches_golden(golden, argv, suffix, flags, capsys):
    # both reports exit 1: arrow-exchange's pinned discrepancy, and the
    # two obstructed amalgams of V(L1dm,L2dm)
    assert main(flags + argv) == 1
    assert capsys.readouterr().out == (GOLDEN / f"{golden}.{suffix}").read_text()


@pytest.mark.parametrize("what", ["primality", "cep"])
@pytest.mark.parametrize("suffix,flags", [("txt", []), ("json", ["--json"])])
def test_verify_structure_report_matches_golden(what, suffix, flags, capsys):
    # both censuses over the 25 simples exit 0, in text and --json
    assert main(flags + ["verify", what]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify" / f"{what}.{suffix}").read_text()
