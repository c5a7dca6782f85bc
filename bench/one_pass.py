"""One benchmark pass, in a fresh interpreter started by run.py.

    python3 bench/one_pass.py --workload W --seed N [--trace] [--probe]

It times the cold ``import shw.cli``, then runs the workload's operations
through ``shw.cli.run`` (the timed region, sampled by a ``ReferenceClock``),
then checks every output.
With ``--probe`` it stops after the import.  With ``--trace`` the layer
tracer is installed around the timed region.  The last line of standard
output is one JSON object with the pass's figures.
"""

import os
import signal
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))


# the reference loop's work: a fixed term, ("v", variable) or (op, left,
# right), evaluated over a fixed 7x7 table
_TABLE = tuple(tuple((x * y + x) % 7 for y in range(7)) for x in range(7))
_TERM = ("j", ("m", ("v", 0), ("j", ("v", 1), ("v", 0))),
         ("m", ("j", ("v", 1), ("v", 1)),
          ("j", ("m", ("v", 0), ("v", 1)), ("v", 0))))


def _value(t, env):
    if t[0] == "v":
        return env[t[1]]
    l, r = _value(t[1], env), _value(t[2], env)
    return _TABLE[l][r] if t[0] == "j" else _TABLE[r][l]


class ReferenceClock:
    """Samples the machine's speed while the pass runs.

    Every ``TICK_S`` of wall time a SIGALRM handler times a fixed
    pure-Python loop that evaluates a small term by recursion and table
    lookups, the kind of work the program's evaluator does; it tracked the
    program's pass times more closely than a flat loop of calls and
    integer arithmetic, or of lookups in a large dict.  A shared machine's
    speed changes by up to half, for seconds or for minutes; the pass time
    divided by the harmonic mean of the loop times does not.  Each sample
    stands for one tick of wall time, done at speed 1/sample, so the
    quotient adds up the work of each tick at the speed measured in it.
    Time spent in the handler is reported so it can be taken out of the
    pass time.
    """

    TICK_S = 0.1
    LOOP = 800

    def __init__(self) -> None:
        self.samples: list[float] = []

    def tick(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        acc = 0
        for i in range(self.LOOP):
            acc += _value(_TERM, (i % 7, i * 3 % 7))
        self.samples.append(time.perf_counter() - t)

    def __enter__(self) -> "ReferenceClock":
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()  # at least one sample, however short the pass

    @property
    def spent_s(self) -> float:
        return sum(self.samples)


def main() -> int:
    t0 = time.perf_counter()
    import shw.cli
    setup_s = time.perf_counter() - t0

    import argparse
    import json
    import resource
    import statistics

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tracing
    import workloads

    expected = workloads.load_expected()
    ops = workloads.operations(args.workload, args.seed, expected)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    outputs = []
    phases: dict[str, float] = {}
    with ReferenceClock() as clock:
        start = time.perf_counter()
        for op in ops:
            t, spent = time.perf_counter(), clock.spent_s
            try:
                r = shw.cli.run(list(op.argv))
                code, text = r.code, r.text
            except Exception as e:  # a crash is a failed operation, not a lost pass
                code, text = None, f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t - (clock.spent_s - spent)
            phases[op.phase] = phases.get(op.phase, 0.0) + dt
            outputs.append((code, text))
        wall_s = time.perf_counter() - start - clock.spent_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_s = statistics.harmonic_mean(clock.samples)

    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.report()

    failures = []
    failed = 0
    searches = {}
    for op, (code, text) in zip(ops, outputs):
        problems = workloads.check(op, code, text, expected, args.seed)
        failures.extend(problems)
        failed += bool(problems)
        if op.phase in ("level2", "sh") and not problems:
            searches[op.phase] = workloads.search_outcome(text)
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "ref_s": ref_s,
        "phases": phases, "attempted": len(ops), "failed": failed,
        "failures": failures[:20], "searches": searches, "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
