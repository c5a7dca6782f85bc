"""Mutation harness: each independent check must kill a named mutant.

A mutant is one exact text edit of a file under ``src/`` or ``tests/``,
with the tests that must catch it.  For each mutant the harness copies
``src/``, ``tests/``, ``docs/`` (the JSON schemas that tests validate
against) and ``pyproject.toml`` (for the pytest settings) to a
temporary directory, applies the edit there, runs the named tests with
``pytest -x -q -p no:cacheprovider`` and requires them to fail.  An old
text that occurs other than exactly once in its file is itself a
failure, so a refactor that moves the code a mutant edits shows up here.
Before the mutants, the named tests must pass on an unedited copy.

    python tests/mutants.py

Exits 0 when every mutant is killed, and 1 naming each survivor.
Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    """One exact text edit, and the tests (node ids from the root) that must fail."""

    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


_AMALGAM = "tests/test_amalgamation.py::"
_STRUCTURE = "tests/test_structure.py::"

MUTANTS = (
    Mutant("base agreement ignores the base", "src/shw/amalgamation.py",
           "        by_base.setdefault(tuple(g[v] for v in am.into_right), []).append(g)\n"
           "    for f in lefts:\n"
           "        for g in by_base.get(tuple(f[v] for v in am.into_left), ()):",
           "        by_base.setdefault((), []).append(g)\n"
           "    for f in lefts:\n"
           "        for g in by_base.get((), ()):",
           (_AMALGAM + "test_every_surveyed_witness_passes_the_independent_check",)),
    Mutant("embeddings into one key keep non-injective maps", "src/shw/varieties.py",
           "return tuple(h for h in homomorphisms(skey, *tkeys) if injective_pairing(h, h))",
           "return tuple(homomorphisms(skey, *tkeys))",
           (_AMALGAM + "test_product_embeddings_are_injective_pairings_of_factor_homomorphisms",)),
    Mutant("_preserves skips the negation", "src/shw/structure.py",
           "if any(m[a.neg[x]] != b.neg[m[x]] for x in range(a.size)):",
           "if False:",
           (_STRUCTURE + "test_find_morphisms_matches_brute_force",)),
    Mutant("enumerate_amalgams drops the orbit reduction", "src/shw/amalgamation.py",
           "orbit = min((tuple(i[v] for v in a), tuple(j[v] for v in a))\n"
           "                                    for a in auts)",
           "orbit = (i, j)",
           (_AMALGAM + "test_enumeration_dedups_by_base_automorphism",)),
    Mutant("product swaps the factors inside a row", "src/shw/algebra.py",
           "return tuple(u * nb + v for u in xs for v in ys)",
           "return tuple(u * nb + v for v in ys for u in xs)",
           ("tests/test_algebra.py::test_product_componentwise",)),
    Mutant("oracle drops the right-hand injectivity test", "src/shw/amalgamation.py",
           "if any(injective_pairing(h1, h2) and injective_pairing(k1, k2)",
           "if any(injective_pairing(h1, h2)",
           (_AMALGAM + "test_oracle_needs_both_pairings_injective",)),
    Mutant("_pair_images without the negation image", "src/shw/structure.py",
           "images[x][x] |= 1 << a.neg[x]",
           "images[x][x] |= 0",
           (_STRUCTURE + "test_all_subuniverses_matches_a_from_scratch_fixpoint",)),
    Mutant("_saturate without the column images", "src/shw/structure.py",
           "            images |= {(t[c][x], t[c][y]) for t in tables for c in n}\n",
           "",
           (_STRUCTURE + "test_congruence_lattice_beyond_the_catalog_matches_brute_force",)),
    Mutant("congruence_join drops q's pairs", "src/shw/structure.py",
           "_partition_pairs(p) + _partition_pairs(q))",
           "_partition_pairs(p))",
           (_STRUCTURE + "test_congruence_join_is_the_equivalence_join",)),
    Mutant("find_morphisms' signature guard needs both tables to differ",
           "src/shw/structure.py",
           "if a.has_arrow != b.has_arrow or a.has_neg != b.has_neg:\n        return []",
           "if a.has_arrow != b.has_arrow and a.has_neg != b.has_neg:\n        return []",
           (_STRUCTURE + "test_find_morphisms_none_across_signatures_one_table_apart",)),
    Mutant("classify_primality counts a non-product as an internal isomorphism",
           "src/shw/structure.py",
           "        if len(pairs) == len(dom) == len(cod):\n            isos.append(pairs)",
           "        if True:\n            isos.append(pairs)",
           (_STRUCTURE + "test_classifiers_match_the_bodies_they_replaced",)),
    Mutant("is_subdirectly_irreducible reads one principal congruence", "src/shw/structure.py",
           "all(p[x] == p[y] for p in principal)",
           "all(p[x] == p[y] for p in principal[:1])",
           (_STRUCTURE + "test_classifiers_match_the_bodies_they_replaced",)),
    Mutant("is_directly_indecomposable without its injectivity clause", "src/shw/structure.py",
           "len(set(zip(p, q))) == a.size == (max(p) + 1) * (max(q) + 1)",
           "len(set(zip(p, q))) == (max(p) + 1) * (max(q) + 1)",
           (_STRUCTURE + "test_classifiers_match_the_bodies_they_replaced",)),
    Mutant("is_directly_indecomposable without its surjectivity clause", "src/shw/structure.py",
           "len(set(zip(p, q))) == a.size == (max(p) + 1) * (max(q) + 1)",
           "len(set(zip(p, q))) == a.size",
           (_STRUCTURE + "test_classifiers_match_the_bodies_they_replaced",)),
    Mutant("the Stone scan returns the rows that pass St", "src/shw/modelsearch.py",
           "fails = ~stack_holds(st, ",
           "fails = stack_holds(st, ",
           ("tests/test_modelsearch.py::test_stone_scan_small_sizes",
            "tests/test_cli.py::test_verify_stone_renders_each_violator")),
    Mutant("the search writer swaps the first two negation texts", "src/shw/cli.py",
           "        neg_ids = ids.tolist()\n",
           "        neg_ids = ids.tolist()\n        neg_texts[:2] = neg_texts[1::-1]\n",
           ("tests/test_cli.py::test_search_json_text_is_the_stdlib_text"
            "[options0-row-major-negation]",)),
    Mutant("the deadline is read only when the node count lands on a multiple of 2,048",
           "src/shw/modelsearch.py",
           "if nodes & 2047 < step and time.monotonic() > deadline:",
           "if nodes & 2047 == 0 and time.monotonic() > deadline:",
           ("tests/test_modelsearch.py::"
            "test_deadline_is_read_each_time_the_node_count_crosses_2048",)),
    Mutant("check_entry reads each key's results from a per-base suite", "src/shw/bases.py",
           "            results = _key_results(k)\n",
           "            results = {s: item.result for s, item in zip(base, satisfies_suite(\n"
           "                catalog.get(k), identity_suite(\"base\", base)).results)}\n",
           ("tests/test_bases.py::test_each_stored_identity_is_decided_once_per_key",)),
)


def _pytest(mutant: Mutant | None, tests: tuple[str, ...]) -> tuple[int, str]:
    """The pytest exit code and output of the tests on a fresh copy of the
    tree, with the mutant's edit applied; exit code -1 when its old text
    does not occur exactly once."""
    with tempfile.TemporaryDirectory(prefix="shw-mutant-") as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests", "docs"):
            shutil.copytree(ROOT / name, root / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", root)
        if mutant is not None:
            target = root / mutant.path
            text = target.read_text()
            if (count := text.count(mutant.old)) != 1:
                return -1, f"old text occurs {count} times in {mutant.path}"
            target.write_text(text.replace(mutant.old, mutant.new))
        path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=root, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


def survives(mutant: Mutant) -> str | None:
    """None when the mutant's tests fail on it, else why it was not killed."""
    code, out = _pytest(mutant, mutant.tests)
    if code == 1:  # pytest: some test failed
        return None
    if code == 0:
        return "every named test passed"
    if code < 0:
        return out
    return f"pytest exited {code}: {(out.strip().splitlines() or [''])[-1]}"


def main() -> int:
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    code, out = _pytest(None, tests)
    if code != 0:
        print(f"the unedited tree fails the named tests (pytest exited {code}):\n{out}")
        return 1
    survivors = []
    for m in MUTANTS:
        start = time.perf_counter()
        why = survives(m)
        verdict = "killed" if why is None else f"SURVIVED ({why})"
        print(f"{time.perf_counter() - start:5.1f} s  {verdict}  {m.name}", flush=True)
        if why is not None:
            survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: {survivors}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
