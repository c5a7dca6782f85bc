"""Spans around the public functions of each layer of ``shw``.

The tracer replaces each wrapped function by a recording wrapper in every
loaded ``shw`` module that holds it, so calls through the consuming
module's own name (``shw.modelsearch.satisfies``, ``shw.cli.satisfies``,
...) are seen.  A span is (function, start, end, parent span).  Spans
stay in memory; self times are derived after the pass.  Result hooks
add exact counts (nodes, assignments, morphisms found, ...).

Wrappers perturb the program, so traced times are for attribution only;
the end-to-end figures come from untraced passes.
"""

from __future__ import annotations

import sys
from time import perf_counter

LAYERS = ("terms", "equations", "modelsearch", "structure", "varieties",
          "amalgamation", "bases", "algebra", "catalog", "cli")

WRAPPED = {
    "terms": ("parse_term", "parse_statement", "parse_identity", "parse_quasi"),
    "equations": ("satisfies", "satisfies_suite", "run_lemma_suite"),
    "modelsearch": ("build_spec", "enumerate_algebras", "exhaustive_stone_check",
                    "bounded_distributive_lattices"),
    "structure": ("find_morphisms", "automorphisms", "all_subuniverses",
                  "congruence_lattice", "is_simple", "has_cep",
                  "classify_primality"),
    "varieties": ("closure", "in_variety", "subvariety_count"),
    "amalgamation": ("enumerate_amalgams", "decide_amalgamation",
                     "brute_force_amalgamation"),
    "bases": ("verify_bases", "check_entry"),
    "algebra": ("validate_lattice", "product", "subalgebra", "to_json_dict",
                "from_json_dict"),
    "catalog": ("get", "family"),
    "cli": ("run",),
}

COUNTS = ("terms.parse_calls", "equations.satisfies_calls",
          "equations.assignments", "modelsearch.searches", "modelsearch.nodes",
          "modelsearch.leaf_checks", "modelsearch.solutions",
          "modelsearch.pairs_screened", "structure.find_morphisms_calls",
          "structure.morphisms_found", "varieties.bitsets",
          "varieties.embeddable_misses", "amalgamation.embeddings_misses",
          "amalgamation.amalgams", "bases.rows", "algebra.product_calls",
          "cli.output_bytes")


def _assignments(args, result) -> int:
    """Assignments ``satisfies`` examined: n^k when the statement holds,
    else the lexicographic rank of the witness plus one."""
    a, stmt = args[0], args[1]
    names = stmt.variables()
    if result.holds:
        return a.size ** len(names)
    rank = 0
    for name in names:
        rank = rank * a.size + result.witness[name]
    return rank + 1


class Tracer:
    def __init__(self) -> None:
        self.fn_names: list[str] = []
        self.fn: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if name == "shw" or name.startswith("shw.")]
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"shw.{layer}")
            for name in names:
                orig = getattr(home, name, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, qualname: str, orig):
        fid = len(self.fn_names)
        self.fn_names.append(qualname)
        hook = getattr(self, "_on_" + qualname.replace(".", "_"), None)
        fn, start, end, parent, stack = (self.fn, self.start, self.end,
                                         self.parent, self._stack)

        def wrapper(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(idx, args, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    # -- result hooks: exact counts --------------------------------------------

    def _on_equations_satisfies(self, idx, args, result) -> None:
        self.counts["equations.assignments"] += _assignments(args, result)
        p = self.parent[idx]
        if p >= 0 and self.fn_names[self.fn[p]] == "modelsearch.enumerate_algebras":
            self.counts["modelsearch.leaf_checks"] += 1

    def _on_modelsearch_enumerate_algebras(self, idx, args, result) -> None:
        self.counts["modelsearch.nodes"] += result.nodes
        self.counts["modelsearch.solutions"] += len(result.solutions)

    def _on_modelsearch_exhaustive_stone_check(self, idx, args, result) -> None:
        self.counts["modelsearch.pairs_screened"] += sum(
            t.arrows * t.negations for t in result.tallies)

    def _on_structure_find_morphisms(self, idx, args, result) -> None:
        self.counts["structure.morphisms_found"] += len(result)

    def _on_varieties_subvariety_count(self, idx, args, result) -> None:
        from shw import varieties
        amb = args[0]
        if isinstance(amb, str):
            amb = varieties.get_ambient(amb)
        self.counts["varieties.bitsets"] += 1 << len(amb.keys)

    def _on_amalgamation_enumerate_amalgams(self, idx, args, result) -> None:
        self.counts["amalgamation.amalgams"] += len(result)

    def _on_bases_verify_bases(self, idx, args, result) -> None:
        self.counts["bases.rows"] += len(result)

    def _on_cli_run(self, idx, args, result) -> None:
        self.counts["cli.output_bytes"] += len(result.text.encode())

    # -- report ----------------------------------------------------------------

    def report(self) -> dict:
        """Counts, per-function calls/total/self time, per-layer self time."""
        n = len(self.fn)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        per_fn: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.fn_names}
        for i in range(n):
            row = per_fn[self.fn_names[self.fn[i]]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in per_fn.items():
            layer_self[name.split(".")[0]] += self_s

        counts = dict(self.counts)
        calls = {name: row[0] for name, row in per_fn.items()}
        counts["terms.parse_calls"] = sum(
            calls.get(f"terms.{f}", 0) for f in WRAPPED["terms"])
        counts["equations.satisfies_calls"] = calls.get("equations.satisfies", 0)
        counts["modelsearch.searches"] = calls.get("modelsearch.enumerate_algebras", 0)
        counts["structure.find_morphisms_calls"] = calls.get("structure.find_morphisms", 0)
        counts["algebra.product_calls"] = calls.get("algebra.product", 0)
        counts["varieties.embeddable_misses"] = _cache_misses("shw.varieties", "embeddable")
        counts["amalgamation.embeddings_misses"] = _cache_misses("shw.amalgamation", "_embeddings")
        return {"counts": counts, "functions": per_fn, "layer_self_s": layer_self}


def _cache_misses(module: str, name: str) -> int:
    """Misses of an lru_cache in the program; 0 when the cache is gone."""
    cached = getattr(sys.modules.get(module), name, None)
    info = getattr(cached, "cache_info", None)
    return info().misses if info is not None else 0
