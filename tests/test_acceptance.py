"""Release gate: every shipped claim at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even on success).  Expected values are analytic oracles or independently
computed quadrature values frozen below; nothing is calibrated against the
implementation under test.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from blowup.classify import Method, Verdict, classify, classify_scaled
from blowup.cli import parse_config, run_experiment
from blowup.functions import (
    make_constant,
    make_power,
    make_power_log,
)
from blowup.ode import BlowupKind, ProblemSpec, detect_blowup, integrate
from blowup.picard import (
    picard_solve,
    solve_autonomous_quadrature,
    verify_bound_preservation,
    verify_comparison_bound,
)
from blowup.pipeline import run_pipeline

from helpers import majorize

ONE = make_constant(1.0)
LN2 = math.log(2.0)

# int_1^inf ds/(s log^2(e+s)) frozen from three independent quadrature
# routes (log-substitution quad, dyadic panel sums, composite Simpson),
# mutually consistent to 4e-13
OSGOOD_INTEGRAL = 1.1898839703443496


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_01_power_threshold_exact():
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        for lam in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
            v = classify(make_power(lam), n)
            ok &= v.method is Method.EXACT_FAMILY
            ok &= (v.verdict is Verdict.DIVERGES) == (lam <= 1.0)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report("criterion 1: power threshold (diverges iff lam <= 1, exact, < 1 s)",
            ok, f"{elapsed:.3f} s")


def test_02_quadratic_blowup_time():
    start = time.perf_counter()
    p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=make_power(2))
    rep = detect_blowup(p, thresholds=(1e3, 1e6, 1e9), horizon=2.0, tol=1e-10)
    elapsed = time.perf_counter() - start
    err = abs(rep.t_blow_estimate - 1.0)
    ok = rep.kind is BlowupKind.BLOW_UP and err <= 1e-3 and elapsed < 1.0
    _report("criterion 2: quadratic blow-up time within 1e-3, < 1 s",
            ok, f"err={err:.2e}, {elapsed:.3f} s")


def test_03_osgood_blowup_oracle():
    h = make_power_log(1.0, 2.0, math.e)
    p = ProblemSpec(m=1, k=0, a=(1.0,), q=ONE, h=h)
    rep = detect_blowup(p, horizon=3.0, tol=1e-10)
    rel = abs(rep.t_blow_estimate - OSGOOD_INTEGRAL) / OSGOOD_INTEGRAL
    ok = rep.kind is BlowupKind.BLOW_UP and rel <= 0.01
    _report("criterion 3: log-driven blow-up time within 1% of the separation integral",
            ok, f"rel={rel:.2e}")


def test_04_linear_global_oracle():
    p = ProblemSpec(m=2, k=0, a=(1.0, 0.0), q=ONE, h=make_power(1))
    traj = integrate(p, 10.0, 1e-9)
    ts = np.linspace(0.0, 10.0, 2001)
    err = float(np.max(np.abs(traj(ts)[:, 0] - np.cosh(ts))))
    ok = err <= 1e-6
    _report("criterion 4: w'' = w matches cosh within 1e-6 on [0, 10]",
            ok, f"err={err:.2e}")


def test_05_picard_tower_exponential():
    tw = picard_solve(make_power(1), 1, [1.0], 1.0, tol=1e-10)
    final = tw.iterates[-1]
    err = abs(final[-1] - math.e)
    mono_ok = tw.monotone_slack >= -1e-12
    bound_ok = tw.majorant_slack >= -1e-12 * (1.0 + float(np.max(tw.majorant)))
    ok = tw.converged and tw.iterations <= 30 and err <= 1e-6 and mono_ok and bound_ok
    _report("criterion 5: tower converges <= 30 iters, |v(1) - e| <= 1e-6, monotone, below majorant",
            ok, f"iters={tw.iterations}, err={err:.2e}")


def test_06_quadrature_inversion():
    u1 = solve_autonomous_quadrature(ONE, 2, 1.0, [1.0])[0]
    err_val = abs(u1 - 4.0)
    targets = np.linspace(0.0, 3.0, 50)
    u = solve_autonomous_quadrature(ONE, 2, 1.0, targets)
    worst = 0.0
    for U, t in zip(u, targets):
        F, _ = quad(lambda s: 0.5 * s ** -0.5, 1.0, U, epsabs=1e-14, epsrel=1e-13)
        worst = max(worst, abs(F - t))
    ok = err_val <= 1e-8 and worst <= 1e-10
    _report("criterion 6: inversion |u(1) - 4| <= 1e-8 and |F(u(t)) - t| <= 1e-10 on 50 targets",
            ok, f"err={err_val:.2e}, F-residual={worst:.2e}")


def test_07_comparison_inequality_suite():
    cases = [
        (1, make_power(1), 3.0),
        (1, ONE, 5.0),
        (1, make_power(2), 0.9),  # restricted below the t = 1 escape
        (2, ONE, 2.0),
        (2, make_power(1), 2.0),
    ]
    worst = 0.0
    for n, g, T in cases:
        rep = verify_comparison_bound(g, n, 1.0, T, 200)
        worst = min(worst, rep.min_slack_rel)
    ok = worst >= -1e-9
    _report("criterion 7: comparison inequality slack >= -1e-9 on the five-case suite",
            ok, f"min_rel_slack={worst:.2e}")


def test_08_scaling_invariance():
    instances = [
        (make_power(0.5), 1), (make_power(0.5), 2),
        (make_power(1.0), 1), (make_power(1.0), 2),
        (make_power(2.0), 1), (make_power(2.0), 2),
        (make_power(3.0), 1), (make_power(3.0), 3),
        (make_power_log(1.0, 2.0, math.e), 1),
        (make_power_log(1.0, 0.5, math.e), 1),
        (make_power_log(1.0, 3.0, math.e), 2),
        (make_power_log(1.5, 1.0, 2.0), 1),
        (make_constant(2.0), 1), (make_constant(2.0), 2),
    ]
    ok = True
    for h, n in instances:
        base = classify(h, n).verdict
        for alpha in (0.5, 2.0, 10.0):
            scaled = classify_scaled(h, n, alpha).verdict
            if Verdict.INCONCLUSIVE not in (base, scaled):
                ok &= scaled == base
    _report("criterion 8: scaled verdict equals plain verdict for alpha in {0.5, 2, 10}", ok)


def test_09_majorization_margins():
    ok = True
    details = []
    for h, n in [(make_power(1), 1), (make_power(1), 2), (make_constant(1.0), 1)]:
        a = tuple([1.0] * n)
        tab = majorize(ONE, h, n, a, J=8, horizon=300.0)
        ok &= tab.levels_reachable and tab.passed
        details.append(f"{h.spec_text}/n={n}: min_rel={min(r.margin_min_rel for r in tab.rows):.1e}")
    # closed-form check for the exponential case
    tab = majorize(ONE, make_power(1), 1, (1.0,), (2.0,), J=8, horizon=10.0)
    t_err = max(abs(r.t_j - r.j * LN2) for r in tab.rows)
    tau_err = max(abs(r.tau_j - 2 * r.j * LN2) for r in tab.rows)
    ok &= t_err <= 1e-8 and tau_err <= 1e-8
    _report("criterion 9: majorization margins >= -1e-7 rel at J=8; levels match j*ln2 / 2j*ln2 to 1e-8",
            ok, f"t_err={t_err:.1e}, tau_err={tau_err:.1e}; " + "; ".join(details))


def test_10_bound_preservation_trials():
    worst = 0.0
    for m, a in [(1, (1.0,)), (2, (1.0, 0.0))]:
        p = ProblemSpec(m=m, k=0, a=a, q=ONE, h=make_power(1))
        traj = integrate(p, 3.0, 1e-10)
        rep = verify_bound_preservation(p, traj, 100, seed=0)
        worst = max(worst, rep.worst_violation)
    ok = worst <= 1e-9
    _report("criterion 10: operator stays in [0, v] over 100 seeded trials (m = 1, 2)",
            ok, f"worst={worst:.2e}")


def test_11_pipeline_consistency_matrix():
    worst = 0.0
    ok = True
    for lam in (0.5, 1.0):
        for m in (1, 2, 3):
            a = tuple(1.0 if i % 2 == 0 else 0.0 for i in range(m))
            for k in range(m):
                p = ProblemSpec(m=m, k=k, a=a, q=ONE, h=make_power(lam))
                rep = run_pipeline(p, horizon=5.0)
                ok &= rep.label == "GlobalConstructed"
                worst = max(worst, rep.construction.consistency_sup)
    ok &= worst <= 1e-5
    _report("criterion 11: constructed solutions match direct integration to 1e-5 on [0, 5]",
            ok, f"worst_sup={worst:.2e}")


def test_12_deterministic_artifacts(tmp_path):
    configs = {
        "classify": "run = classify\nh = powerlog(1.0, 2.0, 2.718281828459045)\nn = 1\n",
        "integrate": (
            "run = integrate\nm = 2\nk = 0\na = [1, 0]\nq = constant(1.0)\n"
            "h = power(1.0)\nT = 3.0\ntol = 1e-9\n"
        ),
        "majorize": (
            "run = majorize\nh = power(1.0)\nn = 1\na = [1]\nq = constant(1.0)\n"
            "J = 5\nhorizon = 10.0\n"
        ),
        "pipeline": (
            "run = pipeline\nm = 1\nk = 0\na = [1]\nq = constant(1.0)\n"
            "h = power(2.0)\nhorizon = 3.0\n"
        ),
    }
    ok = True
    for name, text in configs.items():
        cfg = parse_config(text)
        run_experiment(cfg, out_dir=tmp_path / name / "a")
        run_experiment(cfg, out_dir=tmp_path / name / "b")
        for f in sorted((tmp_path / name / "a").iterdir()):
            ok &= f.read_bytes() == (tmp_path / name / "b" / f.name).read_bytes()
    _report("criterion 12: repeated runs produce bit-identical artifacts", ok)
