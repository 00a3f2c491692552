"""In-process A/B timing of two checkouts of the library on one workload.

Run from anywhere:

    python3 tools/ab.py PARENT CHANGE --workload W [--seed S] [--rounds R] [--reps K]

PARENT and CHANGE are the roots of two checkouts (the same path twice gives an
A/A run).  Each checkout's ``src/blowup`` is loaded into this one process under
its own module name, and both sides run the cases of ``perfbench/workloads.py``
(rounds 0 .. R-1 of seed S) through that module's own runners, imported
read-only from the checkout that holds this script.  Every case runs once per
side to warm both sides up.  Then each repetition runs every case once per
side, the two sides in a random order per case, and sums each side's case
times.  The ratio CHANGE/PARENT of those sums, one per repetition, is the
result: below 1 the change is faster.  Interleaving case by case takes the
machine's speed swings out of each ratio.  Which side is loaded first is
drawn per run and recorded as ``loaded_first`` in the JSON line, so that a
bias that follows the load order can be told from the change.

The tool times warm, in-process work only.  Cold costs (imports, step
generation, the first kernel-weight builds) stay with perfbench's ``setup_s``
and first round.  Each loaded copy keeps its own module caches.

A summary goes to stderr; the median, quartiles and wins go to stdout as one
JSON line, ready to append to a ``BENCH_<pr>.json`` file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import json
import random
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

NOTE = "warm in-process work only; cold costs stay with perfbench setup_s"


@dataclass
class Side:
    root: Path
    lib: object  # the loaded blowup package
    cli: object  # its cli module, which run_cli_cases imports as blowup.cli


def load(name: str, root) -> Side:
    """Load ``root/src/blowup`` as the package ``name``, fresh."""
    pkg = Path(root).resolve() / "src" / "blowup"
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    lib = importlib.util.module_from_spec(spec)
    sys.modules[name] = lib
    spec.loader.exec_module(lib)
    return Side(Path(root).resolve(), lib, importlib.import_module(f"{name}.cli"))


@contextlib.contextmanager
def bound(side: Side):
    """``blowup`` and ``blowup.cli`` name this side's modules while inside."""
    keys = ("blowup", "blowup.cli")
    saved = {k: sys.modules.get(k) for k in keys}
    sys.modules.update(zip(keys, (side.lib, side.cli)))
    try:
        yield
    finally:
        for k, mod in saved.items():
            if mod is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = mod


def cases(workload: str, seed: int, rounds: int) -> list:
    make = WORKLOADS[workload].make_round
    return [case for r in range(rounds) for case in make(seed, r)]


def run_case(workload: str, side: Side, case, work: Path) -> tuple[float, bool]:
    """(seconds, ok) of one case on one side, as the workload's runner times it."""
    with bound(side):
        (out,) = WORKLOADS[workload].run_round([case], side.lib, work)
    return out.end - out.start, out.ok


def compare(parent: Side, change: Side, workload: str, todo: list, reps: int, seed: int) -> dict:
    """Warm both sides, then ``reps`` interleaved repetitions over ``todo``."""
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for quartiles, got {reps}")
    rng = random.Random(seed)
    failed = {"parent": 0, "change": 0}
    ratios = []
    with tempfile.TemporaryDirectory() as tmp:
        work = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        sides = {"parent": parent, "change": change}
        for rep in range(reps + 1):  # repetition 0 warms up and is not timed
            total = {"parent": 0.0, "change": 0.0}
            for case in todo:
                order = ["parent", "change"]
                rng.shuffle(order)
                for key in order:
                    seconds, ok = run_case(workload, sides[key], case, work[key])
                    total[key] += seconds
                    failed[key] += not ok
            if rep:
                ratios.append(total["change"] / total["parent"])
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "ab": workload,
        "parent": str(parent.root),
        "change": str(change.root),
        "seed": seed,
        "cases": len(todo),
        "reps": reps,
        "ratio_median": median,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "wins": sum(r < 1.0 for r in ratios),
        "ratios": ratios,
        "failed": failed,
        "note": NOTE,
    }


def report(rec: dict) -> None:
    print(
        f"{rec['ab']} seed {rec['seed']}: {rec['cases']} cases x {rec['reps']} reps; "
        f"change/parent time median {rec['ratio_median']:.4f} "
        f"(quartiles {rec['ratio_q1']:.4f}-{rec['ratio_q3']:.4f}), "
        f"change faster in {rec['wins']} of {rec['reps']}; "
        f"failed parent {rec['failed']['parent']} change {rec['failed']['change']} "
        f"({rec['note']})",
        file=sys.stderr,
    )
    print(json.dumps(rec), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="root of the parent checkout")
    ap.add_argument("change", help="root of the changed checkout")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="workload seed (default: the workload's)")
    ap.add_argument("--rounds", type=int, default=4, help="rounds 0..R-1 of the seed")
    ap.add_argument("--reps", type=int, default=15, help="timed repetitions")
    args = ap.parse_args(argv)
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    roots = {"parent": args.parent, "change": args.change}
    order = list(roots)
    random.shuffle(order)  # the load order, drawn per run
    sides = {key: load(f"ab_{key}", roots[key]) for key in order}
    rec = compare(sides["parent"], sides["change"], args.workload, cases(args.workload, seed, args.rounds),
                  args.reps, seed)
    report({**rec, "loaded_first": order[0]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
