"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import blowup
import blowup.picard
from run import END_TO_END, WORKLOAD_NAMES, play, tail
from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS, Workload, _check_blowup, _check_global, run_pipeline_cases

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rounds_are_deterministic_in_the_seed(name):
    make = WORKLOADS[name].make_round
    assert make(7, 0) == make(7, 0)
    assert make(7, 1) == make(7, 1)
    assert make(7, 0) != make(8, 0)
    assert make(7, 0) != make(7, 1)


def test_tail_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(40)]
    assert tail(xs) == (29.0, 75.0)
    assert tail(xs[:12])[0] == 1.0


def test_workload_names_match():
    assert set(WORKLOAD_NAMES) == set(WORKLOADS)


def test_round_count_depends_on_seconds_only():
    slow = Workload("slow", 0, lambda seed, r: [r],
                    lambda cases, blowup, work: time.sleep(0.05) or cases, "", 0.01)
    rounds, stamps = play(slow, None, 0, 0.04, None)
    assert rounds == [[0], [1], [2], [3]] and len(stamps) == 4
    assert all(w.rounds(0.1) == 1 for w in WORKLOADS.values())


def _last_json(args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_name_is_reported():
    out, res = _last_json(["--workload", "cli-batch", "--seed", "5", "--seconds", "0.1"])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, unit in END_TO_END:
        assert f" {name} " in out and f" {unit} " in out

    out, res = _last_json(["--workload", "cli-batch", "--seed", "5", "--trace", "1"])
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]} == set(PER_LAYER)
    assert res["metrics"]["cli.configs"]["value"] == len(WORKLOADS["cli-batch"].make_round(5, 0))


def _ladder_case():
    return WORKLOADS["blowup-ladder"].make_round(0, 0)[0]


def test_planted_wrong_answer_raises_fail_ratio():
    case = _ladder_case()
    (good,) = run_pipeline_cases([case], blowup, _check_blowup)
    assert good.ok and not good.wrong

    shifted = replace(case, t_star=case.t_star * 1.5)  # outside t_blow_interval
    outcomes = run_pipeline_cases([case, shifted], blowup, _check_blowup)
    assert [o.ok for o in outcomes] == [True, False]

    divergent = replace(case, h="power(0.5)")  # GlobalConstructed: a wrong label here
    (bad,) = run_pipeline_cases([divergent], blowup, _check_blowup)
    assert not bad.ok and bad.wrong


def test_counters_repeat_between_traced_runs():
    gc = WORKLOADS["global-construct"].make_round(0, 0)
    cases = [gc[0], gc[5]]  # lam=0.5 with m=1, k=0 and m=3, k=2: the quick ones

    def counts():
        with Tracer(blowup) as tr:
            outcomes = run_pipeline_cases(cases, blowup, _check_global)
            run_pipeline_cases([_ladder_case()], blowup, _check_blowup)
        assert all(o.ok for o in outcomes)
        m = tr.metrics(0.0)
        return {k: v for k, v in m.items() if not k.endswith(("_s", "us_per_node"))}

    first, second = counts(), counts()
    assert first == second
    assert first["picard.invert.targets"] > 0 and first["ode.rhs_calls"] > 0
    assert first["volterra.uniform.calls"] > 0 and first["functions.scalar_calls"] > 0
    # leaving the block puts the library back as it was
    for patched in (blowup.picard.solve_autonomous_quadrature, blowup.pipeline.picard_solve,
                    blowup.picard.quad, blowup.ScalarFn.__call__, blowup.Trajectory.__call__):
        assert not hasattr(patched, "__wrapped__")
