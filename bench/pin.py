"""Write expected.json: the outputs the benchmark's checks compare against.

Run from the repository root, once, on a commit whose outputs are known
to be right:

    python3 bench/pin.py

It runs every catalog-sweep operation and the Stone scan through
``shw.cli.run`` and records each exit code with the facts of its payload
that the checks compare (see ``workloads._summary``).  The capped
searches are not pinned; their solutions are re-verified instead.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402
from shw import catalog, cli  # noqa: E402
from shw.equations import suite_names  # noqa: E402


def main() -> int:
    matrix = {f"{key} {suite}": {} for key in catalog.family("all-simples")
              for suite in suite_names()}
    skeleton = {"matrix": matrix, "other": {}}
    ops = (workloads.operations("catalog-sweep", 0, skeleton)
           + workloads.operations("stone-scan", 0, skeleton))
    other = {}
    for op in ops:
        r = cli.run(list(op.argv))
        entry = workloads.pinned_entry(op, r.code, r.text)
        (matrix if op.phase == "matrix" else other)[op.key] = entry
    doc = {"matrix": dict(sorted(matrix.items())), "other": other}
    workloads.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True)
                                       + "\n")
    held = sum(e["code"] == 0 for e in matrix.values())
    print(f"pinned {len(matrix)} matrix cells ({held} hold, "
          f"{len(matrix) - held} fail) and {len(other)} other operations "
          f"to {workloads.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
