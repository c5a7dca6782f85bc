"""The mutation harness of ``tests/mutants.py``, checked on itself: one
seeded mutant is killed, and an edit that cannot be applied or that
changes nothing is reported."""

from __future__ import annotations

from dataclasses import replace

import mutants


def test_every_mutant_edits_text_that_occurs_once():
    for m in mutants.MUTANTS:
        assert (mutants.ROOT / m.path).read_text().count(m.old) == 1, m.name


def _cheap_mutant() -> mutants.Mutant:
    return next(m for m in mutants.MUTANTS if m.name == "_preserves skips the negation")


def test_harness_kills_a_seeded_mutant():
    assert mutants.survives(_cheap_mutant()) is None


def test_harness_reports_what_it_cannot_kill():
    m = _cheap_mutant()
    assert mutants.survives(replace(m, old="")).startswith("old text occurs")
    assert mutants.survives(replace(m, new=m.old)) == "every named test passed"
