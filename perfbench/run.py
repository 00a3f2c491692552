"""Benchmark of the blowup solver: time to a verified verdict.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload global-construct --seed 1 --seconds 15 --trace 0

or every workload, each in its own process:

    python3 perfbench/run.py --workload all

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it plays round 0 untraced and then traced and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The library is
imported from ``src/`` of the checkout, never from an installed copy.

Times are wall times scaled to a reference machine speed (see clock.py);
the plain wall times are printed beside them.
"""

import os

# One thread for every BLAS and OpenMP pool, set before numpy is imported, so
# one run fits one of the two shared cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from clock import SpeedClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("global-construct", "blowup-ladder", "cli-batch")
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("case_s.p50", "s"),
    ("case_s.tail", "s"),
    ("fail_ratio", "ratio"),
    ("err.max", "1"),
    ("peak_rss_mb", "MB"),
)
# Printed but not in the result's metrics, which BENCHMARK.json bounds.
# The medians of ten runs on ten seeds spread (quartile distance over
# median) by more than a third of any bound they could be given (0.25 at
# most):
# case_s.p50 and case_s.tail rest on one or two cases on global-construct
# (12 cases a run) and moved 6-14% between runs; err.max is fixed for a
# seed but its worst case moves with the seed's draws (2% to 32% on
# blowup-ladder), and accuracy is gated case by case; fail_ratio is 0 on a
# healthy workload and travels as "attempted" and "failed".
UNBOUNDED = ("case_s.p50", "case_s.tail", "fail_ratio", "err.max")


def import_blowup():
    """Import the library from this checkout's src/, or fail."""
    if not (SRC / "blowup" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'blowup'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import blowup

    if Path(blowup.__file__).resolve().parent != SRC / "blowup":
        sys.exit(f"perfbench: imported blowup from {blowup.__file__}, not from {SRC}")
    return blowup


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def tail(times: list) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[0], 0.0
    return xs[n - 11], 100.0 * (n - 10) / n


def setup_probes(workload: str, seed: int) -> list:
    """Set up SETUP_REPEATS fresh processes; returns (wall, child report) pairs.

    The wall time runs from spawning the process to its 'ready' line.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    probes = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line.startswith("ready "):
            sys.exit(f"perfbench: set-up probe failed (exit {code})")
        probes.append((wall, json.loads(line[len("ready "):])))
    return probes


def setup_seconds(wall: float, child: dict) -> float:
    """Wall time before the child's clock started, plus its clocked set-up."""
    clock = SpeedClock(child["times"], child["probes"])
    return wall - child["wall"] + clock.seconds(0.0, child["wall"])


def play(w, blowup, seed: int, seconds: float, work: Path):
    """Rounds 0 .. n-1 in a closed loop, n = ``w.rounds(seconds)``.

    Returns the outcomes per round and the (start, end) stamps of each
    round.  Generating a round is not timed; running and checking it is.
    The round count depends on ``seconds`` alone, never on the clock, so
    every run of a seed attempts the same cases and fails the same ones;
    on a slow stretch of the machine a run takes longer instead.
    """
    rounds, stamps = [], []
    for r in range(w.rounds(seconds)):
        cases = w.make_round(seed, r)
        t0 = time.perf_counter()
        rounds.append(w.run_round(cases, blowup, work))
        t1 = time.perf_counter()
        stamps.append((t0, t1))
    return rounds, stamps


def traced_pass(w, blowup, round0, work: Path):
    """Round 0 untraced, then traced.  Returns both outcome lists, the
    tracer and the stamps (t0, t1, t2) around the two passes."""
    from tracer import Tracer
    from workloads import artifact_bytes

    t0 = time.perf_counter()
    plain = w.run_round(round0, blowup, work)
    t1 = time.perf_counter()
    with Tracer(blowup) as tr:
        outcomes = w.run_round(round0, blowup, work)
    t2 = time.perf_counter()
    if w.name == "cli-batch":
        tr.counts["cli.bytes_written"] = artifact_bytes(work)
    return plain, outcomes, tr, (t0, t1, t2)


def err_max(outcomes) -> float:
    errs = [o.err for o in outcomes if not math.isnan(o.err)]
    return max(errs) if errs else math.nan


def result_line(outcomes, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def run_workload(args) -> int:
    t_start = time.perf_counter()
    with SpeedClock() as clock:
        from workloads import WORKLOADS

        w = WORKLOADS[args.workload]
        blowup = import_blowup()
        seed = w.default_seed if args.seed is None else args.seed
        WORK.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            work = Path(tmp)
            round0 = w.make_round(seed, 0)
            w.run_round(round0[:1], blowup, work)  # warm-up
            t_ready = time.perf_counter()
            if not args.setup_probe:
                print("env " + json.dumps(environment()), flush=True)
                if args.trace:
                    traced = traced_pass(w, blowup, round0, work)
                else:
                    setups = setup_probes(w.name, seed)
                    rounds, stamps = play(w, blowup, seed, args.seconds, work)

    if args.setup_probe:
        print("ready " + json.dumps({
            "wall": t_ready - t_start,
            "times": [t - t_start for t in clock.times],
            "probes": clock.probes,
        }), flush=True)
    elif args.trace:
        report_traced(w, seed, clock, *traced)
    else:
        report_timed(w, seed, clock, setups, rounds, stamps)
    return 0


def report_timed(w, seed, clock, setups, rounds, stamps) -> None:
    outcomes = [o for r in rounds for o in r]
    times = [clock.seconds(o.start, o.end) for o in outcomes]
    timed = sum(clock.seconds(t0, t1) for t0, t1 in stamps)
    wall = sum(t1 - t0 for t0, t1 in stamps)
    setup = [setup_seconds(wall_s, child) for wall_s, child in setups]
    verified = sum(o.ok for o in outcomes)
    failed = len(outcomes) - verified
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "cases_per_s": verified / timed,
        "case_s.p50": statistics.median(times),
        "case_s.tail": tail_s,
        "fail_ratio": failed / len(outcomes),
        "err.max": err_max(rounds[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups: "
                   + ", ".join(f"{s:.3f} (wall {ws:.3f})" for s, (ws, _) in zip(setup, setups)),
        "cases_per_s": f"{verified} verified in {timed:.3f} s (wall {wall:.3f} s), "
                       f"{len(rounds)} round(s)",
        "case_s.p50": f"n={len(times)}",
        "case_s.tail": f"p{pct:.1f}, n={len(times)}, {min(10, len(times) - 1)} beyond",
        "fail_ratio": f"{failed} failed / {len(outcomes)} attempted",
        "err.max": f"{w.err_name}, round 0",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    print(f"workload {w.name} seed {seed}; median probe "
          f"{statistics.median(clock.probes) * 1e6:.1f} us")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {metrics[name]:>14.6g} {unit:<5}  ({notes[name]})")
    by_label = {}
    for o, t in zip(outcomes, times):
        by_label.setdefault(o.label, []).append(t)
    for label, ts in by_label.items():
        print(f"  case {label:<24} n={len(ts):<4} p50={statistics.median(ts):.4f} s")
    report_failures(outcomes)
    print(result_line(outcomes, metrics,
                      {name: unit for name, unit in END_TO_END if name not in UNBOUNDED}))


def report_traced(w, seed, clock, plain, outcomes, tr, stamps) -> None:
    from tracer import PER_LAYER, unit

    t0, t1, t2 = stamps
    untraced_s, traced_s = clock.seconds(t0, t1), clock.seconds(t1, t2)
    metrics = tr.metrics(traced_s - untraced_s, clock.seconds)
    tr.write_spans(WORK / f"spans-{w.name}-seed{seed}.json")

    print(f"workload {w.name} seed {seed} traced: {len(outcomes)} cases, "
          f"untraced {untraced_s:.3f} s (wall {t1 - t0:.3f}), "
          f"traced {traced_s:.3f} s (wall {t2 - t1:.3f}), {len(tr.spans)} spans")
    for name in PER_LAYER:
        print(f"  {name:<30} {metrics[name]:>14.6g} {unit(name)}")
    both = plain + outcomes
    report_failures(both)
    print(result_line(both, metrics, {name: unit(name) for name in PER_LAYER}))


def report_failures(outcomes, limit: int = 5) -> None:
    bad = [o.note for o in outcomes if not o.ok]
    for note in bad[:limit]:
        print(f"  FAILED {note}")
    if len(bad) > limit:
        print(f"  ... and {len(bad) - limit} more failed cases")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed play; sets how many whole rounds a run plays")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
