"""The exit-code contract of ``shw search`` over generated argv and env.

0 solutions found / 1 none / 2 bad input / 3 inconclusive (timeout), and
never an escaping exception, whatever the options and SHW_TIMEOUT say.
"""

from __future__ import annotations

import json
import os
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from shw.cli import run  # noqa: E402

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
            ["2", "L1", "L1dm", "D1", "double-diamond", "no-such-key"]))]
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


@settings(max_examples=60, deadline=None)
@given(_search_case())
def test_search_exit_codes_stay_in_contract(case):
    argv, env = case
    environ = {k: v for k, v in os.environ.items() if k != "SHW_TIMEOUT"}
    if env is not None:
        environ["SHW_TIMEOUT"] = env
    with mock.patch.dict(os.environ, environ, clear=True):
        r = run(argv)  # an escaping exception fails the test
    assert r.code in (0, 1, 2, 3), (argv, env)
    if r.code == 2:
        # argparse reports on stderr itself; everything else is one error line
        assert r.text == "" or r.text.startswith("error:"), (argv, env, r.text)
    if r.code == 3 and "--json" in argv:
        assert json.loads(r.text)["reason"] == "timeout"
