"""The output contract of ``shw`` over generated argv, env and values.

0 holds / 1 fails with a witness / 2 bad input / 3 inconclusive (timeout),
never an escaping exception, and every code 2 comes with an ``error:``
line, whatever the options and SHW_TIMEOUT say.  Every ``--json`` text is
the stdlib's ``json.dumps`` with indent 2 and sorted keys, and so is the
CLI's own writer on any generated value.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from shw import catalog  # noqa: E402
from shw.algebra import to_json_dict  # noqa: E402
from shw.cli import _dumps, run  # noqa: E402

# every valid budget here is short, so a search that cannot finish stops soon
_SECONDS = st.sampled_from(["0", "0.05", "0.2", "-0.0", "1e-3",
                            "-5", "nan", "-inf", "abc", ""])
_ITEMS = st.sampled_from(["SH", "DQD", "DM", "St", "L1", "Co", "SHX", "v",
                          "x -> x = 1", "x' <= x", "x != y => x = y",
                          "x -> y = y -> x", "x = ", "(x", ""])


@st.composite
def _search_case(draw) -> tuple[list[str], str | None]:
    argv = []
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.booleans()):
        argv += ["--jobs", draw(st.sampled_from(["1", "2", "0", "-3", "x"]))]
    argv.append("search")
    if draw(st.integers(0, 9)):
        argv += ["--lattice", draw(st.sampled_from(
            ["2", "L1", "L1dm", "D1", "double-diamond", "no-such-key", "."]))]
    for flag in ("--require", "--forbid"):
        if draw(st.booleans()):
            argv += [flag, ",".join(draw(st.lists(_ITEMS, max_size=3)))]
    if draw(st.booleans()):
        argv += ["--limit", draw(st.sampled_from(["1", "3", "0", "-1", "z"]))]
    timeout = draw(st.none() | _SECONDS)
    if timeout is not None:
        argv += ["--timeout", timeout]
    if draw(st.booleans()):
        argv += ["--order", draw(st.sampled_from(
            ["row-major", "column-major", "diagonal"]))]
    env = draw(st.none() | _SECONDS)  # None: SHW_TIMEOUT unset
    if env is None and timeout is None:
        env = "0.2"  # the 300 s default budget is too long for a test
    return argv, env


def _run(argv: list[str]):
    """Run the CLI and check the exit-code contract on its result."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        r = run(argv)  # an escaping exception fails the test
    assert r.code in (0, 1, 2, 3), argv
    if r.code == 2:
        # argparse reports on stderr itself; everything else is one error line
        assert (r.text.startswith("error:")
                or (r.text == "" and "error:" in err.getvalue())), (argv, r.text)
    if "--json" in argv and r.payload is not None:
        assert r.text == json.dumps(r.payload, indent=2, sort_keys=True), argv
    elif r.payload is not None and r.payload.get("schema") == "shw.search/1":
        # a search's text: its header, then one line per solution
        assert r.text.split("\n")[1:] == [json.dumps(s, sort_keys=True)
                                          for s in r.payload["solutions"]], argv
    return r


def _required_and_forbidden(argv: list[str]) -> bool:
    """Whether argv gives one item to both --require and --forbid."""
    def items(flag: str, default: str) -> set[str]:
        raw = argv[argv.index(flag) + 1] if flag in argv else default
        return {s for s in raw.split(",") if s.strip()}
    return bool(items("--require", "SH") & items("--forbid", ""))


@settings(max_examples=60, deadline=None)
@given(_search_case())
# no algebra satisfies and fails St: this used to run out its whole budget
@example((["search", "--lattice", "double-diamond", "--require", "St",
           "--forbid", "St"], "5"))
# a limit that is no positive integer is a usage error of --limit
@example((["search", "--lattice", "2", "--limit", "0"], None))
@example((["--json", "search", "--lattice", "2", "--limit", "-3"], None))
def test_search_exit_codes_stay_in_contract(case):
    argv, env = case
    environ = {k: v for k, v in os.environ.items() if k != "SHW_TIMEOUT"}
    if env is not None:
        environ["SHW_TIMEOUT"] = env
    with mock.patch.dict(os.environ, environ, clear=True):
        r = _run(argv)
    if r.code == 3 and "--json" in argv:
        assert json.loads(r.text)["reason"] == "timeout"
    if r.code != 2 and _required_and_forbidden(argv):
        # nothing to search: exhausted at once
        assert (r.code, r.payload["reason"], r.payload["nodes"]) == (1, "exhausted", 0), argv


# lattice files that read as JSON but not as an algebra: a table entry or a
# constant that is no JSON integer, labels that are no list of strings, or
# a name that is no string
_MALFORMED = {"join-float": ("join", 1, 0, 1.9), "join-bool": ("join", 1, 1, True),
              "bot-str": ("bot", "0"), "elements-str": ("elements", "0a1"),
              "name-int": ("name", 5)}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_search_rejects_lattice_files_that_are_no_algebra(tmp_path, case, as_json):
    doc = to_json_dict(catalog.get("L1"))
    del doc["arrow"]
    field, *where, value = _MALFORMED[case]
    if where:
        doc[field][where[0]][where[1]] = value
    else:
        doc[field] = value
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(doc))
    argv = ["search", "--lattice", str(path), "--require", "SH"]
    r = _run(["--json", *argv] if as_json else argv)
    assert r.code == 2 and "\n" not in r.text, r.text
    assert r.text.startswith("error: malformed algebra object: "), r.text


# catalog keys, unknown keys, and paths to directories
_KEYS = st.sampled_from(["2e", "2bare", "L1", "L1dm", "L10dm", "D1", "D2",
                         "double-diamond", "nope", "", ".", "/"])
_TERMS = st.sampled_from(["x", "0 -> 1", "x' v y*", "(x -> y)+", "x ^",
                          "(x", "", "1"])
_ASSIGNS = st.sampled_from(["x=a", "x=0,y=1", "x=a,y=b", "x=z", "x", "=a",
                            ",", "y=1", "", "x=a,x=b", "x=0,x=0", "y=1,=0"])


_GROUPS = st.sampled_from(["dqd-basic", "stone-property", "nope", "", " "])
_MAX_SIZES = st.sampled_from(["-1", "0", "1", "2", "3", "9", "x", ""])


def _keys(draw) -> str:
    return ",".join(draw(st.lists(_KEYS, max_size=3)))


@st.composite
def _command_case(draw) -> list[str]:
    argv = ["--json"] if draw(st.booleans()) else []
    cmd = draw(st.sampled_from(["catalog", "eval", "check", "lemmas", "stone",
                                "verify", "member", "count", "amalgam"]))
    if cmd == "catalog":
        argv += ["catalog", draw(st.sampled_from(["list", "export"]))]
        argv += draw(st.lists(_KEYS, max_size=1))
    elif cmd == "eval":
        argv += ["eval", draw(_KEYS), draw(_TERMS)]
        if draw(st.booleans()):
            argv += ["--assign", draw(_ASSIGNS)]
    elif cmd == "check":
        argv += ["check", draw(_KEYS)]
        if draw(st.booleans()):
            argv += ["--suite", draw(st.sampled_from(
                ["SH", "Co", "St", "RDMSH2", "SHX", ""]))]
        else:
            argv += ["--identity", draw(_ITEMS)]
    elif cmd == "lemmas":
        argv += ["verify", "lemmas"]
        if draw(st.booleans()):
            argv += ["--group", draw(_GROUPS)]
        if draw(st.booleans()):
            argv += ["--max-size", draw(_MAX_SIZES)]
    elif cmd == "stone":
        argv += ["verify", "stone", "--max-size", draw(_MAX_SIZES)]
        if draw(st.booleans()):
            argv += ["--group", draw(_GROUPS)]
    elif cmd == "verify":
        # a target that takes neither option, given one of them
        argv += ["verify", draw(st.sampled_from(
            ["bases", "corollaries", "lattice", "primality", "cep"]))]
        argv += draw(st.sampled_from([["--group", "dqd-basic"], ["--max-size", "9"]]))
    elif cmd == "member":
        argv += ["variety", "member", draw(_KEYS), "--gens", _keys(draw)]
    elif cmd == "count":
        argv += ["variety", "count", "--ambient", draw(st.sampled_from(
            ["rdmsh1", "rdpcsh1", "rdmh1", "rdmcmsh1", "nope", ""]))]
    else:
        argv += ["amalgam", "check"]
        if draw(st.booleans()):
            argv += ["--variety", _keys(draw)]
        else:
            argv += ["--all-subvarieties-of", draw(st.sampled_from(
                ["rdpcsh1", "rdmh1", "rdmcmsh1", "nope", ""]))]
        if draw(st.booleans()):
            argv.append("--oracle")
    return argv


def _misplaced_option(argv: list[str]) -> bool:
    """Whether argv gives ``verify`` an option of another target."""
    if "verify" not in argv:
        return False
    what = argv[argv.index("verify") + 1]
    return (("--group" in argv and what != "lemmas")
            or ("--max-size" in argv and what != "stone"))


@settings(max_examples=80, deadline=None)
@given(_command_case())
@example(["verify", "stone", "--group", "dqd-basic", "--max-size", "3"])
@example(["verify", "cep", "--max-size", "9"])
@example(["verify", "lemmas", "--group", ""])
@example(["--json", "verify", "lemmas", "--group", " "])
# list takes no key
@example(["catalog", "list", "x"])
@example(["--json", "catalog", "list", "2e"])
def test_other_commands_stay_in_contract(argv):
    r = _run(argv)
    if r.code in (0, 1) and "--json" in argv:
        json.loads(r.text)
    if _misplaced_option(argv) or argv[-2:-1] == ["list"]:
        assert r.code == 2, argv
    elif "--group" in argv and not argv[argv.index("--group") + 1].strip():
        assert (r.code, r.text) == (2, "error: --group: empty lemma group name"), argv


# -- the --json writer against the stdlib -----------------------------------

_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\ud800e\u20ac\U0001f600')
                | st.characters(), max_size=6)
_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300]) | st.floats()
_INTS = st.sampled_from([-1, 2**64, -(2**100)]) | st.integers()
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT
# short int rows from a small range recur at different depths, as the
# table rows of a search's solutions do
_ROWS = st.lists(st.integers(0, 1), min_size=1, max_size=2)
# one key type per dict: json sorts the original keys, and mixed types
# do not compare
_NUMBER_KEYS = st.booleans() | _INTS | _FLOATS


def _json_values(leaves):
    return st.recursive(leaves, lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=4)
        | st.dictionaries(_NUMBER_KEYS, inner, max_size=4)
        | st.dictionaries(st.none(), inner, max_size=1)), max_leaves=24)


def _same_as_stdlib(value) -> None:
    try:
        want = json.dumps(value, indent=2, sort_keys=True)
    except (TypeError, ValueError) as e:
        with pytest.raises(type(e)) as got:
            _dumps(value)
        assert str(got.value) == str(e)
    else:
        assert _dumps(value) == want


@st.composite
def _aliased(draw):
    """One generated value placed three times, twice at one depth and once
    a level deeper, in a drawn order: a search payload shares its lists."""
    value = draw(_json_values(_SCALARS | _ROWS))
    return draw(st.permutations([value, value, [value]]))


# one list object met twice at one level and once at another
_ROW = [0, 1]


@settings(max_examples=300, deadline=None)
@given(_json_values(_SCALARS | _ROWS) | _aliased())
# a memo keyed without the level would reuse the first row's indentation
@example([[0, 1], [[0, 1]], {"a": [0, 1]}])
# a memo keyed by id without the level would reuse the first text's
# indentation, and one that returns the empty first-sighting entry prints
# nothing
@example([_ROW, _ROW, [_ROW], {"a": _ROW}])
# equal as tuples, but a bool must print as true/false
@example([[1, 0], [True, False], [1, 0], [True, False]])
# a bool among ints must print as true/false
@example({"row": [1, True, 0, False], "col": (False,)})
# the scalars of a check payload, in lists and as dict values
@example([True, None, 0, -7, 2**70, False, [None, True], {"n": 3}])
@example({"holds": False, "witness": None, "items": [
    {"holds": True, "witness": None, "rank": 0},
    {"holds": False, "witness": {"x": "a"}, "rank": -(2**64)}]})
def test_dumps_matches_stdlib(value):
    _same_as_stdlib(value)


@settings(max_examples=100, deadline=None)
@given(_json_values(_SCALARS | st.sampled_from(
    [{1, 2}, frozenset(), np.int64(3), np.bool_(True), {(1, 2): 0},
     {"a": 1, 2: "b"}, {None: 1, "x": 2}])))
# numpy scalars among plain ones, in a list and as a dict value
@example([True, 1, None, np.int64(3)])
@example({"holds": np.bool_(False), "witness": None})
def test_dumps_rejects_what_the_stdlib_rejects(value):
    _same_as_stdlib(value)
