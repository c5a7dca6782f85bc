"""Mutation harness: each independent check must kill a named mutant.

A mutant is one exact text edit of a file under ``src/`` or ``tests/``,
with the tests that must catch it.  For each mutant the harness copies
``src/``, ``tests/`` and ``pyproject.toml`` (for the pytest settings) to
a temporary directory, applies the edit there, runs the named tests with
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
)


def _pytest(mutant: Mutant | None, tests: tuple[str, ...]) -> tuple[int, str]:
    """The pytest exit code and output of the tests on a fresh copy of the
    tree, with the mutant's edit applied; exit code -1 when its old text
    does not occur exactly once."""
    with tempfile.TemporaryDirectory(prefix="shw-mutant-") as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
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
