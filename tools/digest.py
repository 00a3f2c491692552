"""Print one sha256 per group of the library's outputs, to show that a change
keeps every number of the tree it is compared with.

Run from the root of a checkout:

    python3 tools/digest.py

It imports ``src/blowup`` and ``perfbench/workloads.py`` from that checkout
and writes nothing there (the CLI artifacts go to a temporary directory).
Two checkouts print the same lines exactly when every hashed value is the
same bit for bit.  The groups:

- global-construct seeds 1 and 4, rounds 0-3: every pipeline report, field
  by field (construction, majorization, the constructed and direct
  trajectories with ts/ys/dys/tol/stats/dense), and each case's Picard
  tower: grid, iterates and levels (its majorant goes to tower-majorant);
- blowup-ladder seeds 2 and 5, rounds 0-15: every report with its
  trajectory;
- cli-batch seed 3, rounds 0-2: every artifact, byte for byte;
- classify: ``classify`` and ``classify_scaled`` (alpha in {0.3, 2, 17}) on
  custom h with a declared exponent 2, without one, and with a callable
  that does not broadcast, and on h = e^s, which overflows inside the float
  range, through ``np.exp`` and through a scalar-only ``math.exp``, for
  n = 1-3;
- classify step-h: the same on step-function h, ``constant(2.5)``, a
  one-piece and a three-piece ``piecewise``;
- powerlog-pipeline: divergent-regime pipelines with a powerlog h, whose
  majorization companion reads h at rho s;
- piecewise-majorant: ``majorant_growth`` of a seven-piece piecewise h for
  n = 1-7 (breakpoints, values on a grid) and the majorant of its tower;
- piecewise-lift: divergent-regime pipelines with a power h and a q with
  one or two jumps inside the horizon, m = 2-3 and k >= 1, drawn from a
  fixed seed, so that the lift runs across q's jumps;
- ladder: 300 Picard towers drawn from a fixed seed (power h, n = 1-3,
  data with zeros, tol 1e-11 to 1e-7, constant q or q with one jump), each
  tower's grid, iterates and levels.  A few of them have a level whose gap
  misses tol/4 by more than 64^2, which no tower of the other groups has;
- zero-data: ``integrate``, ``detect_blowup`` and ``run_pipeline`` on
  all-zero data, h = s^lam with lam in {0.5, 1, 2}, m = 1-3 and every k,
  with a constant q and with a q that jumps inside the horizon, whose
  trajectories carry the solution 0 across the jump;
- escape: ``integrate``, and ``detect_blowup`` with the default ladder, the
  one-rung ladder (1e12,) and the short ladder (10, 1e3, 1e6), each with its
  dense output at 101 points, on n = 1 and n = 3 power h, n = 2 powerlog h,
  a custom h and an ``f_override``, each under a constant q and under a q
  that jumps before the blow-up, and on data already past 1e12, the
  default ladder's top, at t = 0: the escape at a ladder's top rung and at
  ``integrate``'s own level, 1e300, which the workloads, whose ladders all
  end on the tail, do not reach;
- tail-n1: ``detect_blowup`` on reduced order 1 (m = 1, and m = 2 with
  k = 1) with a custom h with and without a declared exponent and powerlog
  h with lam = 1, each under a constant q and under a q that jumps before
  the blow-up: each report's method, T*, interval and escape rows; and
  the n = 1 tail from u = 1e-200 past a jump of q, h = s^2;
- tail-piece: ``detect_blowup`` on n = 1 power(2) and powerlog(1, 2) from
  1, n = 2 power(2) from (1, 1), and m = 2, k = 1 power(2), each under a q
  that is 1 until a jump at 1.5 T* or 0.75 T* (T* of q = 1) and 0, 0.5 or 2
  after it, and w' = w^1.1 from 1 under a q that jumps at 20, past T* = 10
  and the horizon 8: every report with its trajectory;
- inversion-reach: ``solve_autonomous_quadrature`` of power g with lam in
  {0.99, 0.999, 1}, n = 1-3 and u0 = 1 at targets between F(e^661) and
  F(e^708.5), near the end of the float range, the escape time of power(2) from
  1, and the target 1e300 past the float range for powerlog(1, sigma) g
  with sigma in {1.5, 3} and n = 1-3, and the target 1 for power(2) from
  1e307 and power(1.5) from 1e300; the edges of the closed form of a power
  g: for lam > 1, targets a relative 1e-9 and one float below F(inf) and one
  float above it, and for lam <= 1 targets whose U lies past e^709 (a
  finite float at t = 709.5 for power(1), +inf at the others); and the
  target 1e300 from u0 = 1e-200, where g is subnormal, for power(1.6) and
  powerlog(1.6, 0.5): each value (+inf where U is past the largest double)
  or escape time, or the type of the error raised;
- float-range: the ``majorant`` of the Picard tower of u' = h(u),
  h = powerlog(1, 1), from 1 on [0, 1] (finite up to t ~ 0.52, then +inf),
  CLI ``construct`` on the same problem (exit status, stdout and every
  artifact, byte for byte), and ``solve_autonomous_quadrature`` of
  power(1) from u0 in {0.5, 1, 3}, n = 1-3, in closed form and through F's
  table, at targets straddling F(float max);
- tower-majorant: the inverted ``majorant`` of every Picard tower that the
  pipeline groups above build, in their order (a power h's is the closed
  form, any other h's comes from F's table).

Every group that runs pipelines (global-construct, blowup-ladder,
powerlog-pipeline, piecewise-lift, zero-data) also hashes each constructed
trajectory's dense output at 1001 points across its horizon, so the
values between nodes are compared too.

A report field that is an exception is hashed by its type and ``where``,
not its message.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import blowup  # noqa: E402
import blowup.cli  # noqa: E402
import blowup.pipeline  # noqa: E402
from workloads import WORKLOADS, _problem, run_cli_cases  # noqa: E402


def feed(hasher, x) -> None:
    """Hash x by value: arrays by dtype, shape and bytes, dataclasses field by
    field, functions by their spec text, everything else by repr."""
    if isinstance(x, np.ndarray):
        hasher.update(f"{x.dtype}{x.shape}".encode())
        hasher.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, blowup.ScalarFn):
        hasher.update(f"fn:{x.spec_text}".encode())
    elif isinstance(x, blowup.Trajectory):
        # by its public values, ``dense`` read through the attribute, so
        # that its private fields (the rows not built yet) stay out
        hasher.update(b"Trajectory")
        for name in ("ts", "ys", "dys", "tol", "stats", "dense"):
            hasher.update(name.encode())
            feed(hasher, getattr(x, name))
    elif dataclasses.is_dataclass(x):
        hasher.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            hasher.update(f.name.encode())
            feed(hasher, getattr(x, f.name))
    elif isinstance(x, (list, tuple)):
        hasher.update(f"[{len(x)}".encode())
        for v in x:
            feed(hasher, v)
        hasher.update(b"]")
    elif isinstance(x, dict):
        for key in sorted(x):
            hasher.update(repr(key).encode())
            feed(hasher, x[key])
    elif isinstance(x, BaseException):
        hasher.update(f"raised:{type(x).__name__}:{getattr(x, 'where', None)!r}".encode())
    elif callable(x):
        hasher.update(b"<callable>")
    else:
        hasher.update(repr(x).encode())


class Group:
    def __init__(self, name: str):
        self.name, self.items, self.hasher = name, 0, hashlib.sha256()

    def add(self, x) -> None:
        feed(self.hasher, x)
        self.items += 1

    def line(self) -> str:
        return f"{self.name} items={self.items} sha256={self.hasher.hexdigest()}"


# the majorants of the pipeline groups' towers, hashed apart from them
MAJORANTS = Group("tower-majorant")


def pipelines(group: Group, problems, horizon) -> None:
    """Every report of run_pipeline over problems, each constructed
    trajectory's dense output at 1001 points across its horizon, and the
    towers it built; each tower's majorant goes to MAJORANTS."""
    towers = []
    solve = blowup.pipeline.picard_solve

    def recording(*args, **kwargs):
        towers.append(solve(*args, **kwargs))
        return towers[-1]

    blowup.pipeline.picard_solve = recording
    try:
        for p, T in zip(problems, horizon):
            towers.clear()
            try:
                rep = blowup.run_pipeline(p, horizon=T)
            except blowup.BlowupError as e:
                rep = e
            group.add(rep)
            if getattr(rep, "constructed", None) is not None:
                group.add(rep.constructed(np.linspace(0.0, T, 1001)))
            for tower in towers:
                group.add(tower)
                MAJORANTS.add(tower.majorant)
    finally:
        blowup.pipeline.picard_solve = solve


def workload_group(name: str, seeds, rounds) -> Group:
    group = Group(f"{name} seeds={','.join(map(str, seeds))} rounds=0-{rounds - 1}")
    make = WORKLOADS[name].make_round
    for seed in seeds:
        for r in range(rounds):
            cases = make(seed, r)
            pipelines(group, [_problem(c, blowup) for c in cases], [c.horizon for c in cases])
    return group


def cli_group(seed: int, rounds: int) -> Group:
    group = Group(f"cli-batch seeds={seed} rounds=0-{rounds - 1}")
    make = WORKLOADS["cli-batch"].make_round
    for r in range(rounds):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            run_cli_cases(make(seed, r), blowup, work)
            for path in sorted((work / "out").rglob("*")):
                if path.is_file():
                    group.add((str(path.relative_to(work)), path.read_bytes()))
    return group


def _add_verdicts(group: Group, functions) -> None:
    for h in functions:
        for n in (1, 2, 3):
            for alpha in (None, 0.3, 2.0, 17.0):
                try:
                    v = blowup.classify(h, n) if alpha is None else blowup.classify_scaled(h, n, alpha)
                except (blowup.BlowupError, OverflowError) as e:  # where eval_array lets math.exp's through
                    v = e
                group.add((h.spec_text, n, alpha, v))


def classify_group() -> Group:
    group = Group("classify custom-h alpha=None,0.3,2,17 n=1-3")
    declared = blowup.make_custom(lambda s: 3.0 * s ** 2 * np.log(np.e + s), asymptotic_exponent=2.0,
                                  label="declared")
    undeclared = blowup.make_custom(lambda s: s ** 1.5 + s, label="undeclared")
    scalar_only = blowup.make_custom(lambda s: s * math.log(math.e + s) ** 2.5, label="scalar-only")
    exp = blowup.make_custom(lambda s: np.exp(s), label="exp")
    math_exp = blowup.make_custom(lambda s: math.exp(s), label="math-exp")
    _add_verdicts(group, (declared, undeclared, scalar_only, exp, math_exp))
    return group


def classify_step_group() -> Group:
    group = Group("classify step-h alpha=None,0.3,2,17 n=1-3")
    spec = blowup.parse_fn_spec  # the same text at any version of make_constant
    _add_verdicts(group, [spec(text) for text in (
        "constant(2.5)", "piecewise((0,inf):0.75)", "piecewise((0,0.5):3.0, (0.5,4):0.25, (4,inf):1.5)")])
    return group


def powerlog_group() -> Group:
    group = Group("powerlog-pipeline")
    spec = blowup.parse_fn_spec  # the same text at any version of make_power_log
    one, jump = spec("constant(1.0)"), spec("piecewise((0,0.5):1.0, (0.5,inf):0.5)")
    problems = [
        blowup.ProblemSpec(m=1, k=0, a=(1.0,), q=one, h=spec("powerlog(1.0, 0.5)")),
        blowup.ProblemSpec(m=2, k=0, a=(1.0, 0.5), q=one, h=spec("powerlog(0.5, 1.0)")),
        blowup.ProblemSpec(m=3, k=1, a=(1.0, 0.0, 1.0), q=one, h=spec("powerlog(0.8, 1.0, 2.0)")),
        blowup.ProblemSpec(m=2, k=1, a=(0.5, 1.0), q=jump, h=spec("powerlog(0.9, 0.5)")),
    ]
    pipelines(group, problems, [2.0, 2.0, 2.0, 1.5])
    return group


def piecewise_group() -> Group:
    group = Group("piecewise-majorant n=1-7")
    edges = (0.0, 0.1, 0.35, 1.0, 2.5, 7.0, 30.0, math.inf)
    vals = (0.5, 0.7, 1.0, 1.6, 2.4, 3.9, 6.0)
    h = blowup.make_piecewise([((lo, hi), v) for lo, hi, v in zip(edges, edges[1:], vals)])
    grid = np.geomspace(1e-3, 1e3, 257)
    for n in range(1, 8):
        g = blowup.majorant_growth(h, n, weight=1.5)
        group.add((g.breakpoints, g.eval_array(grid), [g(float(s)) for s in grid[::16]]))
        tower = blowup.picard_solve(h, n, [1.0] * n, 0.5, tol=1e-8)
        group.add((tower, tower.majorant))
    return group


def piecewise_lift_group() -> Group:
    group = Group("piecewise-lift")
    rng = np.random.default_rng(19)
    spec = blowup.parse_fn_spec
    problems, horizons = [], []
    for _ in range(12):
        m = int(rng.integers(2, 4))
        k = int(rng.integers(1, m))
        horizon = float(rng.uniform(0.5, 5.0))
        cuts = np.sort(rng.uniform(0.05, 0.95, int(rng.integers(1, 3)))) * horizon
        edges = ["0", *map(repr, cuts.tolist()), "inf"]
        pieces = ", ".join(f"({lo},{hi}):{rng.uniform(0.25, 2.0)!r}" for lo, hi in zip(edges, edges[1:]))
        data = tuple(float(x) for x in rng.uniform(0.1, 2.0, m))
        h = spec(f"power({rng.uniform(0.2, 1.0)!r})")
        problems.append(blowup.ProblemSpec(m=m, k=k, a=data, q=spec(f"piecewise({pieces})"), h=h))
        horizons.append(horizon)
    pipelines(group, problems, horizons)
    return group


def ladder_group() -> Group:
    group = Group("ladder draws=300")
    rng = np.random.default_rng(34)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        b = [0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 2.0)) for _ in range(n)]
        T, tol = float(rng.uniform(0.5, 5.0)), 10.0 ** float(rng.uniform(-11.0, -7.0))
        h = blowup.make_power(float(rng.uniform(0.3, 1.0)))
        qv, cut = rng.uniform(0.25, 2.0, int(rng.integers(1, 3))).tolist(), float(rng.uniform(0.1, 0.9)) * T
        if len(qv) == 1:
            q = blowup.make_constant(qv[0])
        else:
            q = blowup.make_piecewise([((0.0, cut), qv[0]), ((cut, math.inf), qv[1])])
        tower = blowup.picard_solve(h, n, b, T, tol=tol, q=q, majorant_b=np.add(b, 1.0))
        group.add((tower.grid, tower.iterates, tower.levels))
    return group


def zero_data_group() -> Group:
    group = Group("zero-data lam=0.5,1,2 m=1-3")
    spec = blowup.parse_fn_spec
    problems = [
        blowup.ProblemSpec(m=m, k=k, a=(0.0,) * m, q=spec(q), h=blowup.make_power(lam))
        for lam in (0.5, 1.0, 2.0)
        for m in (1, 2, 3)
        for k in range(m)
        for q in ("constant(1.0)", "piecewise((0,1):0.5, (1,inf):2.0)")
    ]
    for p in problems:
        group.add((blowup.integrate(p, 3.0, 1e-9), blowup.detect_blowup(p, horizon=3.0)))
    pipelines(group, problems, [3.0] * len(problems))
    return group


def escape_group() -> Group:
    group = Group("escape n=1-3 ladders=default,1e12,short")
    spec = blowup.parse_fn_spec
    square = spec("power(2.0)")
    problems = [
        blowup.ProblemSpec(m=1, k=0, a=(2e12,), q=spec("constant(1.0)"), h=square),
        blowup.ProblemSpec(m=2, k=1, a=(1.0, 5e12), q=spec("constant(1.0)"), h=square),
    ]
    for q in ("constant(1.0)", "piecewise((0,0.25):0.5, (0.25,inf):2.0)"):
        q = spec(q)
        problems += [
            blowup.ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=square),
            blowup.ProblemSpec(m=3, k=0, a=(1.0, 1.0, 1.0), q=q, h=square),
            blowup.ProblemSpec(m=2, k=0, a=(1.0, 1.0), q=q, h=spec("powerlog(1.5, 1.0)")),
            blowup.ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=blowup.make_custom(lambda s: s * s + s, label="s^2+s")),
            blowup.ProblemSpec(m=2, k=1, a=(0.5, 1.0), q=q, h=square,
                               f_override=lambda t, y: 0.5 * float(y[1]) ** 2),
        ]
    ladders = (blowup.ode.DEFAULT_THRESHOLDS, (1e12,), (10.0, 1e3, 1e6))
    for p in problems:
        for ladder in (None, *ladders):
            try:
                res = (blowup.integrate(p, 4.0, 1e-9) if ladder is None
                       else blowup.detect_blowup(p, thresholds=ladder, horizon=4.0, tol=1e-9))
            except blowup.BlowupError as e:
                group.add(e)
                continue
            traj = getattr(res, "trajectory", res)
            group.add((res, traj(np.linspace(0.0, traj.t_end, 101))))
    return group


def tail_n1_group() -> Group:
    group = Group("tail-n1 custom,declared,powerlog(1,sigma)")
    spec = blowup.parse_fn_spec
    hs = (blowup.make_custom(lambda s: s * s + s, label="s^2+s"),
          blowup.make_custom(lambda s: s ** 1.5, asymptotic_exponent=1.5, label="s^1.5"),
          spec("powerlog(1.0, 1.5)"), spec("powerlog(1.0, 3.0)"))
    for h in hs:
        for q in (spec("constant(1.0)"), spec("piecewise((0,0.25):0.5, (0.25,inf):2.0)")):
            for m, a in ((1, (1.0,)), (2, (0.5, 1.0))):
                p = blowup.ProblemSpec(m=m, k=m - 1, a=a, q=q, h=h)
                rep = blowup.detect_blowup(p, horizon=20.0, tol=1e-9)
                group.add((rep.t_blow_method, rep.t_blow_estimate, rep.t_blow_interval, rep.escape_thresholds))
    q = spec("piecewise((0,1):1.0, (1,inf):2.0)")
    tail = blowup.ode._tail_rule(blowup.ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=spec("power(2.0)")))
    group.add(tail(2.0, (1e-200,)))
    return group


def tail_piece_group() -> Group:
    group = Group("tail-piece n=1,2 jumps=0.75,1.5 T*")
    spec = blowup.parse_fn_spec
    one = spec("constant(1.0)")
    problems = [(1, 0, (1.0,), spec("power(2.0)")), (1, 0, (1.0,), spec("powerlog(1.0, 2.0)")),
                (2, 0, (1.0, 1.0), spec("power(2.0)")), (2, 1, (1.0, 1.0), spec("power(2.0)"))]
    for m, k, a, h in problems:
        t_blow = blowup.detect_blowup(blowup.ProblemSpec(m=m, k=k, a=a, q=one, h=h), horizon=5.0).t_blow_estimate
        for b in (1.5 * t_blow, 0.75 * t_blow):
            for c1 in (0.0, 0.5, 2.0):
                q = blowup.make_piecewise([((0.0, b), 1.0), ((b, math.inf), c1)])
                group.add(blowup.detect_blowup(blowup.ProblemSpec(m=m, k=k, a=a, q=q, h=h), horizon=5.0))
    # T* = 10 past the horizon 8 and before the jump at 20
    q = spec("piecewise((0,20):1.0, (20,inf):2.0)")
    group.add(blowup.detect_blowup(blowup.ProblemSpec(m=1, k=0, a=(1.0,), q=q, h=spec("power(1.1)")), horizon=8.0))
    return group


def _escape(g, n: int, u0: float, targets):
    """An inversion's values, the escape time it raises, or the other error it
    raises (hashed by its type)."""
    try:
        return blowup.solve_autonomous_quadrature(g, n, u0, targets)
    except blowup.FiniteEscapeError as e:
        return e.escape_time
    except blowup.BlowupError as e:
        return e


def inversion_reach_group() -> Group:
    group = Group("inversion-reach lam=0.99,0.999,1 n=1-3")
    ys = np.linspace(661.0, 708.5, 6)  # log U of the targets
    for lam in (0.99, 0.999, 1.0):
        for n in (1, 2, 3):
            a = (1.0 - lam) / n  # F(U) = (U^a - 1) / (n a), log(U) / n at a = 0
            targets = np.expm1(a * ys) / (n * a) if a else ys / n
            group.add((lam, n, targets, _escape(blowup.make_power(lam), n, 1.0, targets)))
    group.add(_escape(blowup.make_power(2.0), 1, 1.0, [1.5]))
    # past the float range: lam = 1 powerlog g (convergent where sigma > n) and
    # starts at 1e307 (g = s^2 is inf from the first unit step) and at 1e300,
    # where u0^-lam underflows but the escape time u0^(1-lam)/(lam-1) does not
    for sigma in (1.5, 3.0):
        for n in (1, 2, 3):
            group.add((sigma, n, _escape(blowup.make_power_log(1.0, sigma), n, 1.0, [1e300])))
    group.add(_escape(blowup.make_power(2.0), 1, 1e307, [1.0]))
    group.add(_escape(blowup.make_power(1.5), 1, 1e300, [1.0]))
    # the closed form's edges: around F(inf) for lam > 1, U past e^709 (a float or +inf) for lam <= 1
    for lam, n, u0 in ((2.0, 1, 1.0), (3.0, 2, 2.0), (1.5, 3, 0.5)):
        g = blowup.make_power(lam)
        escape = blowup.classify_from(g, n, u0).estimate / n
        for t in (escape * (1.0 - 1e-9), np.nextafter(escape, 0.0), np.nextafter(escape, math.inf)):
            group.add((lam, n, u0, t, _escape(g, n, u0, [0.5 * escape, t])))
    for lam, n, t in ((0.5, 1, 1e300), (0.999, 3, 1e5), (1.0, 1, 709.5), (1.0, 2, 1e300)):
        group.add((lam, n, t, _escape(blowup.make_power(lam), n, 1.0, [1.0, t])))
    # from u0 = 1e-200, g = s^1.6 is subnormal: F(inf) = u0^-0.6 / 0.6 ~ 1.67e120
    for g in (blowup.make_power(1.6), blowup.make_power_log(1.6, 0.5)):
        group.add(_escape(g, 1, 1e-200, [1e300]))
    return group


def float_range_group() -> Group:
    group = Group("float-range powerlog(1,1) power(1)")
    h = blowup.parse_fn_spec("powerlog(1.0, 1.0)")
    try:
        group.add(blowup.picard_solve(h, 1, [1.0], 1.0).majorant)
    except blowup.BlowupError as e:
        group.add(e)
    text = "run = construct\nh = powerlog(1.0, 1.0)\nn = 1\nb = [1]\nT = 1.0\n"
    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as stdout,
          contextlib.redirect_stderr(io.StringIO())):
        status = blowup.cli.run_experiment(blowup.cli.parse_config(text), out_dir=Path(tmp))
        group.add((status, stdout.getvalue()))
        for path in sorted(Path(tmp).rglob("*")):
            group.add((path.name, path.read_bytes()))
    # F(U) = log(U/u0)/n: F(float max) to rounding, and a relative 1e-9 and 1e-14 on either side
    for u0 in (0.5, 1.0, 3.0):
        for n in (1, 2, 3):
            f_max = (math.log(np.finfo(float).max) - math.log(u0)) / n
            targets = f_max * (1.0 + np.array([-1e-9, -1e-14, 0.0, 1e-14, 1e-9]))
            for g in (blowup.make_power(1.0), blowup.scaled(blowup.make_power(1.0), 1.0, label="tabled")):
                group.add((u0, n, targets, _escape(g, n, u0, targets)))
    return group


def main() -> None:
    groups = [
        lambda: workload_group("global-construct", (1, 4), 4),
        lambda: workload_group("blowup-ladder", (2, 5), 16),
        lambda: cli_group(3, 3),
        classify_group,
        classify_step_group,
        powerlog_group,
        piecewise_group,
        piecewise_lift_group,
        ladder_group,
        zero_data_group,
        escape_group,
        tail_n1_group,
        tail_piece_group,
        inversion_reach_group,
        float_range_group,
    ]
    for make in groups:
        print(make().line(), flush=True)
    print(MAJORANTS.line(), flush=True)


if __name__ == "__main__":
    main()
