"""Benchmark runner for shw: end-to-end and per-layer figures.

Run from the repository root:

    python3 bench/run.py --workload stone-scan --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

Each pass is a fresh interpreter (``one_pass.py``) started one after
another, so every pass pays the cold caches a CLI call pays.  Untraced
runs (``--trace 0``) report the end-to-end metrics; traced runs
(``--trace 1``) alternate an untraced and a traced pass and report the
per-layer metrics and the signed tracing overhead.  Every output is
checked outside the timed region; the last line of standard output is
one JSON object, and the exit code is 1 when any check failed.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from one_pass import ReferenceClock
from tracing import COUNTS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "shw"

RUN_LIMIT_S = 165  # a whole run ends well inside 180 s
# extra import-only interpreters for setup_s: some before the passes and
# one before each round, because a shared machine's speed drifts in a run
SETUP_PROBES_FIRST = 3

# passes write and use bytecode caches, as an installed package has them
PASS_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB",
             "ok_frac": "frac"}
PER_LAYER_UNITS = {
    **{name: "bytes" if name == "cli.output_bytes" else "count"
       for name in COUNTS},
    "modelsearch.solutions_per_node": "ratio",
    "equations.satisfies_s": "s",
    "equations.assignments_per_s": "1/s",
    "cli.self_s": "s",
    **{f"{layer}.busy_s": "s" for layer in LAYERS},
    "setup.numpy_import_s": "s",
    "setup.shw_import_s": "s",
    "trace.overhead_s": "s",
}


# -- environment ------------------------------------------------------------

def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _probe_machine() -> dict:
    """Load average and the best of three reference-loop times."""
    clock = ReferenceClock()
    for _ in range(3):
        clock.tick()
    return {"loadavg": list(os.getloadavg()), "calibration_s": min(clock.samples)}


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_sha": _git_sha(), "src_sha256": _src_digest(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy_version}


# -- passes -----------------------------------------------------------------

def spawn_pass(workload: str, seed: int, deadline: float, *, trace=False,
               probe=False) -> tuple[dict | None, str]:
    """Run one pass to completion; (its JSON line, or None; stderr)."""
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "one_pass.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if probe:
        cmd.append("--probe")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=PASS_ENV, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"pass killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr[-2000:]
    try:
        return json.loads(lines[-1]), proc.stderr
    except ValueError:
        return None, proc.stdout[-2000:]


def _importtime(stderr: str) -> dict[str, tuple[int, int]]:
    """module -> (self us, cumulative us) from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        out.setdefault(name.strip(), (int(self_us), int(cum_us)))
    return out


def _layer_metrics(traced: list[tuple[dict, dict]], overhead_s: float) -> dict:
    """Per-layer metrics: exact counts from the first traced pass, times as
    medians over the traced passes."""
    m = dict(traced[0][0]["trace"]["counts"])

    def med(f) -> float:
        return statistics.median(f(p, imports) for p, imports in traced)

    def fn(p, name, col):
        return p["trace"]["functions"].get(name, [0, 0.0, 0.0])[col]

    nodes = m["modelsearch.nodes"]
    m["modelsearch.solutions_per_node"] = (
        m["modelsearch.solutions"] / nodes if nodes else 0.0)
    m["equations.satisfies_s"] = med(
        lambda p, _: fn(p, "equations.satisfies", 1))
    m["equations.assignments_per_s"] = (
        m["equations.assignments"] / m["equations.satisfies_s"]
        if m["equations.satisfies_s"] else 0.0)
    m["cli.self_s"] = med(lambda p, _: fn(p, "cli.run", 2))
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = med(
            lambda p, imports: p["trace"]["layer_self_s"][layer]
            + imports.get(f"shw.{layer}", (0, 0))[0] / 1e6)
    m["setup.numpy_import_s"] = med(
        lambda _, imports: imports.get("numpy", (0, 0))[1] / 1e6)
    m["setup.shw_import_s"] = med(
        lambda _, imports: sum(s for name, (s, _) in imports.items()
                               if name == "shw" or name.startswith("shw.")) / 1e6)
    m["trace.overhead_s"] = overhead_s
    return m


def log(line: str) -> None:
    print(line, flush=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload: the result object and what the report shows."""
    n_ops = len(workloads.operations(workload, seed, workloads.load_expected()))
    deadline = time.monotonic() + RUN_LIMIT_S
    before = _probe_machine()

    # bytecode caches are written by the first import; that is not set-up
    spawn_pass(workload, seed, deadline, probe=True)
    setups = []

    def probe_setup(times: int) -> None:
        for _ in range(times):
            probe, _ = spawn_pass(workload, seed, deadline, probe=True)
            if probe is not None:
                setups.append(probe["setup_s"])

    probe_setup(SETUP_PROBES_FIRST)
    plain: list[dict] = []
    traced: list[tuple[dict, dict]] = []
    attempted = failed = 0
    failures: list[str] = []
    t_passes = time.monotonic()
    rounds = 0
    while True:
        probe_setup(1)
        for kind in ((False, True) if trace else (False,)):
            p, stderr = spawn_pass(workload, seed, deadline, trace=kind)
            if p is None:
                attempted += n_ops
                failed += n_ops
                failures.append(f"pass failed: {stderr.strip()[-500:]}")
                continue
            attempted += p["attempted"]
            failed += p["failed"]
            failures += p["failures"]
            if kind:
                traced.append((p, _importtime(stderr)))
            else:
                plain.append(p)
                setups.append(p["setup_s"])
            log(f"pass {len(plain) + len(traced)}{' (traced)' if kind else ''}: "
                f"wall {p['wall_s']:.3f} s, reference {p['ref_s'] * 1e3:.2f} ms, "
                f"setup {p['setup_s']:.3f} s, "
                f"rss {p['peak_rss_mb']:.1f} MB, "
                f"failed {p['failed']}/{p['attempted']}")
        rounds += 1
        spent = time.monotonic() - t_passes
        per_round = spent / rounds
        if spent + per_round > seconds or time.monotonic() + per_round > deadline:
            break

    shown = {"workload": workload, "machine": (before, _probe_machine()),
             "failures": failures[:20], "samples": (len(plain), len(setups))}
    metrics = {}
    if plain:
        shown["phases"] = {
            ph: (statistics.median(p["phases"][ph] for p in plain),
                 statistics.median(p["phases"][ph] / p["ref_s"] for p in plain))
            for ph in plain[0]["phases"]}
        shown["wall_s"] = statistics.median(p["wall_s"] for p in plain)
        shown["searches"] = plain[-1]["searches"]
    if trace:
        units = PER_LAYER_UNITS
        if traced and plain:
            overhead = (statistics.median(p["wall_s"] for p, _ in traced)
                        - statistics.median(p["wall_s"] for p in plain))
            metrics = _layer_metrics(traced, overhead)
            shown["functions"] = traced[0][0]["trace"]["functions"]
    else:
        units = E2E_UNITS
        if plain:
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_ref": statistics.median(p["wall_s"] / p["ref_s"] for p in plain),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            }
        metrics["ok_frac"] = (attempted - failed) / attempted
    result = {"correct": failed == 0 and set(metrics) == set(units),
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units if name in metrics}}
    return {"result": result, "shown": shown}


# -- reporting ---------------------------------------------------------------

def _report(out: dict) -> None:
    d, r = out["shown"], out["result"]
    m = d["machine"]
    log(f"machine: load {m[0]['loadavg'][0]:.2f} -> {m[1]['loadavg'][0]:.2f}, "
        f"reference loop {m[0]['calibration_s'] * 1e3:.2f} -> "
        f"{m[1]['calibration_s'] * 1e3:.2f} ms")
    log(f"samples: {d['samples'][0]} untraced passes, "
        f"{d['samples'][1]} set-up times")
    if "wall_s" in d:
        log(f"wall: {d['wall_s']:.3f} s (median, not normalized)")
    for ph, (sec, ref) in d.get("phases", {}).items():
        log(f"phase {ph}: {sec:.3f} s, {ref:.1f} ref (medians)")
    for ph, s in d.get("searches", {}).items():
        log(f"search {ph}: complete {str(s['complete']).lower()}, reason "
            f"{s['reason']}, {s['nodes']} nodes, {s['solutions']} solutions")
    if "functions" in d:
        log("traced functions (first traced pass): calls, total s, self s")
        for name, (calls, total, own) in sorted(d["functions"].items()):
            if calls:
                log(f"  {name:42} {calls:9d} {total:10.4f} {own:10.4f}")
    for f in d["failures"]:
        log(f"FAILED: {f}")
    for name, v in r["metrics"].items():
        value = v["value"]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        log(f"{d['workload']} {name} = {shown} {v['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cli.py").is_file():
        print(f"error: no program source at {SRC.relative_to(ROOT)}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    log("env " + json.dumps(environment(), sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    outs = []
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _report(out)
        outs.append(out)
    if len(outs) == 1:
        result = outs[0]["result"]
    else:
        result = {"correct": all(o["result"]["correct"] for o in outs),
                  "attempted": sum(o["result"]["attempted"] for o in outs),
                  "failed": sum(o["result"]["failed"] for o in outs),
                  "metrics": {f"{o['shown']['workload']}:{k}": v
                              for o in outs
                              for k, v in o["result"]["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
