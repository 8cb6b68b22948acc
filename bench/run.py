#!/usr/bin/env python3
"""Time to a verified verdict for prufer, one workload per run.

    python3 bench/run.py --workload fields --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --steady 5 --seconds 10   # every workload, seeds 1..5

A run builds its workload's inputs from the seed, then makes whole passes
over the operations in one process and one thread, each operation starting
when the previous one returned, until --seconds have gone by.  It checks every
output against the oracle and prints one JSON object as its last line:
end-to-end metrics with --trace 0; with --trace 1 it makes as many passes
again with spans recorded and prints per-layer metrics instead.  --steady K
runs each chosen workload K times on seeds seed..seed+K-1, each run in its own
process, and prints the median and quartiles of every metric.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("corpus", "fields", "products", "membership", "refusals")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 300
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mib": "MiB"}
# The probe's time at full speed on the machine the figures in README.md come
# from (a 2-core Xeon VM at 2.1 GHz).  Times are reported at that speed.
PROBE_REF_S = 7.0e-4
SAMPLE_S = 0.05


def clock() -> float:
    # System-wide, so a child's reading can be compared with its parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe() -> float:
    """Time of a fixed piece of interpreter work, the fastest of three tries.

    It runs no prufer code, so a change to the program does not move it.
    """
    best = float("inf")
    for _ in range(3):
        start = clock()
        acc, x = Fraction(0), 1
        for i in range(1, 300):
            acc += Fraction(i, i + 1)
            x = (x * 1103515245 + 12345) % (1 << 61)
        best = min(best, clock() - start)
    return best


class Speedometer:
    """Samples the machine's speed while timed work runs.

    Other tenants of the machine change its speed, by up to 1.7x for tens of
    seconds, so raw times spread by 30-40 % between runs.  While active, a
    profiling timer runs ``probe`` every SAMPLE_S of CPU time; ``rescale``
    turns a measured interval into time at reference speed, the speed at
    which the probe takes PROBE_REF_S.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # time taken by the sampling itself
        self._limit = None  # (since, start, edge probe, limit) of the running operation

    def _on_tick(self, signum, frame):
        start = clock()
        self.samples.append(probe())
        self.spent += clock() - start
        if self._limit is not None:
            since, begin, edge, limit = self._limit
            used, _ = self.rescale(since, self.mark(), clock() - begin, [edge])
            if used >= limit:
                self._limit = None
                raise OpTimeout()

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def timed(self, op, target, before: float):
        """Run one operation: (marks before and after, wall time, outcome).

        An exception, or running past ``op.limit_s`` seconds at reference
        speed, is a failed outcome.  The limit is counted at reference speed
        so that the work done before it stops is the same at any speed.
        """
        since = self.mark()
        start = clock()
        try:
            if op.limit_s:
                self._limit = (since, start, before, op.limit_s)
            try:
                outcome = execute(op, target)
            finally:
                self._limit = None
        except OpTimeout:
            outcome = ("failed", f"no answer within {op.limit_s} s at reference speed")
        except Exception:  # a crash of the program is counted, not fatal
            outcome = ("failed", traceback.format_exc())
        elapsed = clock() - start
        return since, self.mark(), elapsed, outcome

    def rescale(self, since, until, elapsed: float, edges: list[float]) -> tuple[float, float]:
        """(time at reference speed, factor) for ``elapsed`` seconds measured
        between marks ``since`` and ``until``; ``edges`` are probes taken
        next to the interval."""
        probes = [*edges, *self.samples[since[0] : until[0]]]
        factor = PROBE_REF_S * statistics.fmean(1 / p for p in probes)
        return (elapsed - (until[1] - since[1])) * factor, factor


class OpTimeout(BaseException):
    """An operation ran past its time limit.

    A BaseException, so that no handler inside the program swallows it.
    """


def execute(op, target):
    """One operation, as the CLI runs it; the outcome is plain data."""
    from prufer import decision, errors, ivp, orders
    from workloads import MEMBER

    if op.kind == MEMBER:
        return ("member", ivp.int_member_order(target, op.poly))
    order = orders.load_order(target) if isinstance(target, Path) else target
    try:
        cert = decision.decide_pruefer(order)
    except errors.IndeterminateError as exc:
        return ("indeterminate", exc.reason)
    return ("cert", decision.verify_certificate(order, cert), cert.to_json())


def run_passes(ops, rng: random.Random, seconds: float | None = None, count: int | None = None, tracer=None):
    """Whole passes in a seeded order: ``count`` of them, or as many as it
    takes for ``seconds`` to go by.  Each pass is a list of
    (operation index, latency at reference speed, outcome)."""
    passes = []
    begin = clock()
    with Speedometer() as speed:
        while True:
            order = list(range(len(ops)))
            rng.shuffle(order)
            targets = [op.fresh_target() for op in ops]
            results = []
            before = probe()
            for i in order:
                first_span = tracer.begin() if tracer else 0
                since, until, elapsed, outcome = speed.timed(ops[i], targets[i], before)
                after = probe()
                latency, factor = speed.rescale(since, until, elapsed, [before, after])
                if tracer:
                    tracer.rescale(first_span, factor)
                results.append((i, latency, outcome))
                before = after
            passes.append(results)
            if len(passes) == count or (count is None and clock() - begin >= seconds):
                return passes


def fast_quarter(ops, passes) -> list[float]:
    """Each operation's latency at the lower quartile of its passes.

    Preemption by other tenants adds time that the probes do not see, so the
    fast end is the steadiest estimate of an operation's cost; the quartile,
    unlike the minimum, is not pulled down by one unlucky probe.  With fewer
    than four passes it is the minimum.
    """
    latencies = [[] for _ in ops]
    for results in passes:
        for i, latency, _ in results:
            latencies[i].append(latency)
    return [sorted(values)[len(values) // 4] for values in latencies]


def check_outputs(ops, passes) -> list[str]:
    """Every output must repeat exactly across passes and agree with the oracle."""
    import oracle

    outcomes = [[] for _ in ops]
    for results in passes:
        for i, _, outcome in results:
            outcomes[i].append(outcome)
    problems = []
    for op, seen in zip(ops, outcomes):
        answered = [o for o in seen if o[0] != "failed"]
        failures = {o[1] for o in seen if o[0] == "failed"}
        for reason in failures:
            print(f"failed: {op.label}: {reason}", file=sys.stderr)
        if not answered:
            continue
        if any(o != answered[0] for o in answered[1:]):
            problems.append(f"{op.label}: the output changed between passes")
        problems.extend(f"{op.label}: {p}" for p in oracle.check(op, answered[0]))
    return problems


def measure_setup(workload: str, seed: int) -> float:
    """Median time from the start of a fresh process to its first timed operation.

    The imports count as wall time: they are mostly mapping and reading
    files, which the probe's speed does not track.  Building and validating
    the inputs is interpreter work and counts at reference speed.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        imported, building = map(float, done.stdout.split()[-2:])
        times.append(imported - start + building)
    return statistics.median(times)


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "prufer" / "__init__.py").is_file():
        sys.exit(f"error: no prufer sources under {src}")
    sys.path.insert(0, str(src))


def setup_only(args) -> int:
    """Set up as a run does; print when the imports ended and how long
    building the inputs took at reference speed."""
    _import_program()
    import workloads

    imported = clock()
    with Speedometer() as speed:
        since = speed.mark()
        workloads.build(args.workload[0], args.seed, ROOT)
        built = clock()
        until = speed.mark()
    building, _ = speed.rescale(since, until, built - imported, [probe()])
    print(repr(imported), repr(building))
    return 0


def single_run(args) -> int:
    _import_program()
    import spans
    import workloads

    workload = args.workload[0]
    ops = workloads.build(workload, args.seed, ROOT)
    setup_s = None if args.trace else measure_setup(workload, args.seed)
    rng = random.Random(f"passes:{workload}:{args.seed}")
    base = run_passes(ops, rng, seconds=args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    best = fast_quarter(ops, base)
    if args.trace:
        tracer = spans.Tracer(clock)
        with tracer.installed():
            traced = run_passes(ops, rng, count=len(base), tracer=tracer)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{workload}-{args.seed}.jsonl")
        values = tracer.metrics(len(traced))
        values["trace.overhead_s"] = sum(fast_quarter(ops, traced)) - sum(best)
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"} for k, v in values.items()}
        passes = base + traced
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": sum(best),
            "op_p50_s": statistics.median(best),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        passes = base
    problems = check_outputs(ops, passes)
    for problem in problems:
        print(f"wrong: {problem}", file=sys.stderr)
    outcomes = [outcome for results in passes for _, _, outcome in results]
    print(f"{workload}: {len(passes)} passes of {len(ops)} operations", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(outcomes),
                "failed": sum(o[0] == "failed" for o in outcomes),
                "metrics": metrics,
            }
        )
    )
    return 0


def steady(args) -> int:
    """Run each workload K times in fresh processes; print medians and quartiles."""
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    summary = {}
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in range(args.seed, args.seed + args.steady):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if done.returncode:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            runs.append(json.loads(done.stdout.splitlines()[-1]))
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        print(f"{workload}: correct={all(r['correct'] for r in runs)} failed/attempted={' '.join(shares)}")
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else float("nan")
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
            bound = bounds.get(name)
            note = f" bound {bound} (spread/bound {spread / bound:.2f})" if bound else ""
            print(f"  {name:48s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}{note}")
        summary[workload] = {"correct": all(r["correct"] for r in runs), "failed/attempted": shares, "metrics": rows}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="repeat to choose several with --steady")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="how long one run makes passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="K", help="run each workload K times and print quartiles")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.steady:
        return steady(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("a single run needs exactly one --workload")
    return setup_only(args) if args.setup_only else single_run(args)


if __name__ == "__main__":
    sys.exit(main())
