"""Seeded workloads for the blowup benchmark.

A workload is an endless sequence of *rounds*.  Round r of seed s is a fixed
list of cases drawn from ``numpy.random.default_rng([s, r])``, so the same
seed always gives the same inputs.  A timed run plays rounds 0 .. n-1, one
case at a time in one thread (a closed loop), where n depends only on the
run's ``--seconds`` (``Workload.rounds``), so a seed always gives the same
attempted and failed counts.  Round 0 is the one ``err.max`` and the traced
run use.

Every case is checked, and a case that fails a check is counted, never
skipped.  ``Outcome.ok`` is false when any check fails: a wrong label, a
violated gate, an exception, a reference outside the reported interval, a
result off its closed form, or a nonzero CLI exit.  ``Outcome.wrong`` marks
the subset that is a wrong verdict: a label or classification the reference
contradicts, or a report marked passed that misses its own gate.

The library receives only the generated inputs: problems are passed as
function-spec text and parsed by ``blowup.functions.parse_fn_spec``, the same
parser the CLI uses.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

# The zero pattern of acceptance criterion 11: a_i is nonzero for even i.
MATRIX = tuple((lam, m, k) for lam in (0.5, 1.0) for m in (1, 2, 3) for k in range(m))


@dataclass(frozen=True)
class Case:
    """One problem w^(m) = q(t) h(w^(k)), w^(i)(0) = a_i, given as spec text."""

    label: str
    m: int
    k: int
    a: tuple
    h: str
    q: str
    horizon: float
    t_star: Optional[float] = None  # reference blow-up time, when known


@dataclass(frozen=True)
class CliCase:
    """One config file for ``blowup batch`` and what its artifacts must show."""

    name: str
    run: str
    text: str
    expect: tuple  # (key, value) pairs; see _check_cli


@dataclass(frozen=True)
class Outcome:
    label: str  # the kind of case
    start: float  # time.perf_counter() stamps around the case
    end: float
    ok: bool
    wrong: bool
    err: float  # error against the workload's reference; nan when none applies
    note: str = ""


def _spec(x: float) -> str:
    return repr(float(x))


def _power(lam: float) -> str:
    return f"power({_spec(lam)})"


def _const(c: float) -> str:
    return f"constant({_spec(c)})"


def _piecewise(b: float, c1: float, c2: float) -> str:
    return f"piecewise((0,{_spec(b)}):{_spec(c1)}, ({_spec(b)},inf):{_spec(c2)})"


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(r)])


def _u(rng, lo, hi) -> float:
    # rounded so the spec text, the config text and the oracle see one value
    return float(f"{rng.uniform(lo, hi):.6g}")


def _near(rng, centre) -> float:
    return _u(rng, 0.9 * centre, 1.1 * centre)


# ---------------------------------------------------------------------------
# global-construct: the criterion-11 matrix with drawn nonzero data


def global_construct_round(seed: int, r: int) -> list[Case]:
    """12 divergent-regime cases: lambda in {0.5, 1}, m in {1, 2, 3}, k < m.

    The nonzero initial values are drawn; the zeros stay, so the singular
    start u(0) = 0 with lambda < 1 (m = 3, k = 1) is in every round.
    """
    rng = _rng(seed, r)
    cases = []
    for lam, m, k in MATRIX:
        a = tuple(_u(rng, 0.9, 1.1) if i % 2 == 0 else 0.0 for i in range(m))
        cases.append(Case(f"lam={lam} m={m} k={k}", m, k, a, _power(lam), _const(1.0), 5.0))
    return cases


# ---------------------------------------------------------------------------
# blowup-ladder: convergent-regime problems with a blow-up time oracle


def _t_star_power_m1(a: float, lam: float) -> float:
    """int_a^inf ds / s^lam."""
    return a ** (1.0 - lam) / (lam - 1.0)


def _t_star_power_m2(a0: float, a1: float, lam: float, c: float) -> float:
    """Blow-up time of w'' = c w^lam, w(0) = a0, w'(0) = a1 > 0.

    Energy gives w'^2 = a1^2 + kappa (w^(lam+1) - a0^(lam+1)), kappa =
    2c/(lam+1), so T* = int_a0^inf dw / w'.  With w = a0 s^(-beta), beta =
    2/(lam-1), the integrand becomes the bounded
    beta a0 / sqrt(kappa a0^(lam+1) + (a1^2 - kappa a0^(lam+1)) s^(2 beta + 2))
    on s in (0, 1].
    """
    beta = 2.0 / (lam - 1.0)
    e = 2.0 * c / (lam + 1.0) * a0 ** (lam + 1.0)
    val, _ = quad(
        lambda s: beta * a0 / math.sqrt(e + (a1 * a1 - e) * s ** (2.0 * beta + 2.0)),
        0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return val


def _t_star_powerlog_m1(a: float, sigma: float) -> float:
    """int_a^inf ds / (s log(e + s)^sigma) for sigma > 1.

    With z = log(e + s) the integrand is z^-sigma / (1 - e^(1-z)); the
    z^-sigma part integrates in closed form and the rest decays like e^-z.
    """
    z0 = math.log(math.e + a)
    rest, _ = quad(
        lambda z: z ** -sigma * math.exp(1.0 - z) / -math.expm1(1.0 - z),
        z0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return z0 ** (1.0 - sigma) / (sigma - 1.0) + rest


def blowup_ladder_round(seed: int, r: int) -> list[Case]:
    """20 convergent-regime cases, four of each kind, each with its T*.

    The coefficient scales the problem so that T* is a drawn target in
    [0.5, 2]; the pipeline horizon is 5.
    """
    rng = _rng(seed, r)
    cases = []
    for _ in range(4):
        # m = 1 power law: w' = c w^lam
        lam, a, t = _u(rng, 1.1, 3.0), _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
        c = float(f"{_t_star_power_m1(a, lam) / t:.6g}")
        cases.append(Case("power m=1", 1, 0, (a,), _power(lam), _const(c), 5.0,
                          _t_star_power_m1(a, lam) / c))
        # m = 2 power law on w: w'' = c w^lam
        lam, a0, a1, t = _u(rng, 1.1, 3.0), _u(rng, 0.5, 2.0), _u(rng, 0.2, 2.0), _u(rng, 0.5, 2.0)
        c = float(f"{_t_star_power_m2(a0, a1, lam, 1.0) ** 2 / t ** 2:.6g}")
        cases.append(Case("power m=2 k=0", 2, 0, (a0, a1), _power(lam), _const(c), 5.0,
                          _t_star_power_m2(a0, a1, lam, c)))
        # m = 2 power law on w': the derivative blows up as in m = 1
        lam, a0, a1, t = _u(rng, 1.1, 3.0), _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
        c = float(f"{_t_star_power_m1(a1, lam) / t:.6g}")
        cases.append(Case("power m=2 k=1", 2, 1, (a0, a1), _power(lam), _const(c), 5.0,
                          _t_star_power_m1(a1, lam) / c))
        # m = 1 powerlog(1, sigma > 1): log-driven blow-up
        sigma, a, t = _u(rng, 1.5, 3.0), _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
        c = float(f"{_t_star_powerlog_m1(a, sigma) / t:.6g}")
        h = f"powerlog(1.0, {_spec(sigma)}, {_spec(math.e)})"
        cases.append(Case("powerlog m=1", 1, 0, (a,), h, _const(c), 5.0,
                          _t_star_powerlog_m1(a, sigma) / c))
        # m = 1 power law with a jump in q at b < T*:
        # int_a^inf ds/h = c1 b + c2 (T* - b), a share phi of it before the jump
        lam, a, t = _u(rng, 1.1, 3.0), _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
        b, phi = float(f"{_u(rng, 0.2, 0.8) * t:.6g}"), _u(rng, 0.2, 0.8)
        need = _t_star_power_m1(a, lam)
        c1 = float(f"{phi * need / b:.6g}")
        c2 = float(f"{(1.0 - phi) * need / (t - b):.6g}")
        cases.append(Case("piecewise-q m=1", 1, 0, (a,), _power(lam), _piecewise(b, c1, c2),
                          5.0, b + (need - c1 * b) / c2))
    return cases


# ---------------------------------------------------------------------------
# running pipeline cases


def _problem(case: Case, blowup):
    return blowup.ProblemSpec(
        m=case.m, k=case.k, a=case.a,
        q=blowup.parse_fn_spec(case.q), h=blowup.parse_fn_spec(case.h),
    )


def _check_global(case: Case, rep) -> tuple[bool, bool, float, str]:
    if rep.label != "GlobalConstructed":
        return False, True, math.nan, f"label {rep.label}"
    c = rep.construction
    claimed = rep.passed
    if claimed and not c.consistency_sup <= c.consistency_tol:
        return False, True, c.consistency_sup, "passed despite the consistency gate"
    if not claimed:
        return False, False, c.consistency_sup, f"gate failed: consistency_sup={c.consistency_sup:.3e}"
    return True, False, c.consistency_sup, ""


def _check_blowup(case: Case, rep) -> tuple[bool, bool, float, str]:
    if rep.label != "BlowUpDetected":
        return False, True, math.nan, f"label {rep.label}"
    est = rep.blowup.t_blow_estimate
    lo, hi = rep.blowup.t_blow_interval
    err = abs(est - case.t_star) / case.t_star
    if not lo <= case.t_star <= hi:
        return False, False, err, f"T*={case.t_star!r} outside [{lo!r}, {hi!r}]"
    return True, False, err, ""


def run_pipeline_cases(cases, blowup, check) -> list[Outcome]:
    out = []
    for case in cases:
        p = _problem(case, blowup)
        t0 = time.perf_counter()
        try:
            rep = blowup.run_pipeline(p, horizon=case.horizon)
        except Exception as e:  # any exception is a failed case, never a skipped one
            out.append(Outcome(case.label, t0, time.perf_counter(), False, False, math.nan,
                               f"{case.label}: {type(e).__name__}: {e}"))
            continue
        t1 = time.perf_counter()
        ok, wrong, err, note = check(case, rep)
        out.append(Outcome(case.label, t0, t1, ok, wrong, err,
                           f"{case.label}: {note}" if note else ""))
    return out


# ---------------------------------------------------------------------------
# cli-batch: config files for all seven run types through `blowup batch`


def _cfg(**kv) -> str:
    lines = []
    for key, val in kv.items():
        if isinstance(val, tuple):
            val = "[" + ", ".join(_spec(x) for x in val) + "]"
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def cli_batch_round(seed: int, r: int) -> list[CliCase]:
    """Nine configs: the seven run types, with two detect-blowup (lambda
    near 2 and 3) and two pipeline configs (constant and piecewise q).

    The structure of a round is fixed and every value is drawn within 10%
    of a centre, so every round costs about the same.
    """
    rng = _rng(seed, r)
    cases = []

    # classify: a power below the exact threshold
    cases.append(CliCase("c0-classify", "classify",
                         _cfg(run="classify", h=_power(_near(rng, 0.6)), n=2),
                         (("verdict", "Diverges"),)))

    # integrate: w'' = c w has a closed form at T
    c, T = _near(rng, 1.0), _near(rng, 2.0)
    a = (_near(rng, 1.0), _near(rng, 1.0))
    w = math.sqrt(c)
    exact = (a[0] * math.cosh(w * T) + a[1] / w * math.sinh(w * T),
             a[0] * w * math.sinh(w * T) + a[1] * math.cosh(w * T))
    cases.append(CliCase("c1-integrate", "integrate",
                         _cfg(run="integrate", m=2, k=0, a=a, q=_const(c), h=_power(1.0),
                              T=T, tol=1e-9),
                         (("reached_T", "true"), ("final_state~", exact))))

    # detect-blowup: w' = c w^lam with T* near 1, for two exponents
    for name, centre in (("c2-detect-blowup", 2.0), ("c3-detect-blowup", 3.0)):
        lam, a0, t = _near(rng, centre), _near(rng, 1.0), _near(rng, 1.0)
        c = float(f"{_t_star_power_m1(a0, lam) / t:.6g}")
        cases.append(CliCase(name, "detect-blowup",
                             _cfg(run="detect-blowup", m=1, k=0, a=(a0,), q=_const(c),
                                  h=_power(lam), horizon=10.0),
                             (("kind", "BlowUp"), ("t_star", _t_star_power_m1(a0, lam) / c))))

    # construct: v' = v^lam (lam < 1) has v = (b^(1-lam) + (1-lam) t)^(1/(1-lam))
    lam, b, T = _near(rng, 0.6), _near(rng, 1.0), _near(rng, 1.0)
    exact = (b ** (1.0 - lam) + (1.0 - lam) * T) ** (1.0 / (1.0 - lam))
    cases.append(CliCase("c4-construct", "construct",
                         _cfg(run="construct", h=_power(lam), n=1, b=(b,), T=T),
                         (("converged", "true"), ("v_end~", (exact,)))))

    # majorize: level-doubling comparison in the divergent regime
    a = (_near(rng, 1.0), _near(rng, 1.0))
    cases.append(CliCase("c5-majorize", "majorize",
                         _cfg(run="majorize", h=_power(_near(rng, 0.75)), n=2, a=a,
                              q=_const(1.0), J=5, horizon=10.0),
                         (("passed", "true"),)))

    # verify-lemma22: comparison inequality on a 200-target inversion grid
    cases.append(CliCase("c6-verify-lemma22", "verify-lemma22",
                         _cfg(run="verify-lemma22", g=_power(_near(rng, 0.6)), n=2,
                              u0=_near(rng, 1.0), T=_near(rng, 1.0), grid_size=200),
                         (("passed", "true"),)))

    # pipeline, constant q, divergent regime
    a = (_near(rng, 1.0), _near(rng, 1.0))
    cases.append(CliCase("c7-pipeline", "pipeline",
                         _cfg(run="pipeline", m=2, k=0, a=a, q=_const(_near(rng, 1.0)),
                              h=_power(0.5), horizon=2.0),
                         (("label", "GlobalConstructed"), ("passed", "true"))))

    # pipeline, piecewise q with one jump inside the horizon
    q = _piecewise(_near(rng, 0.5), _near(rng, 1.0), _near(rng, 0.5))
    cases.append(CliCase("c8-pipeline-piecewise", "pipeline",
                         _cfg(run="pipeline", m=1, k=0, a=(_near(rng, 1.0),), q=q,
                              h=_power(1.0), horizon=1.0),
                         (("label", "GlobalConstructed"), ("passed", "true"))))
    return cases


_EXIT_RE = re.compile(r"^\[(.+)\.cfg\] exit (\d+)$")


class _ExitClock(io.TextIOBase):
    """Captures CLI stdout and timestamps each ``[name] exit N`` line."""

    def __init__(self):
        self.text = []
        self.exits = []  # (stem, status, perf_counter)
        self._line = ""

    def writable(self):
        return True

    def write(self, s):
        self.text.append(s)
        self._line += s
        while "\n" in self._line:
            line, self._line = self._line.split("\n", 1)
            m = _EXIT_RE.match(line)
            if m:
                self.exits.append((m.group(1), int(m.group(2)), time.perf_counter()))
        return len(s)


def _report(path: Path) -> dict:
    kv = {}
    for line in path.read_text().splitlines():
        if "=" in line and not line.startswith("#"):
            key, val = line.split("=", 1)
            kv[key] = val
    return kv


def _close(got: str, want: tuple, rel: float) -> bool:
    vals = [float(x) for x in got.split(",")]
    return len(vals) == len(want) and all(
        abs(v - w) <= rel * abs(w) for v, w in zip(vals, want)
    )


_VERDICT_KEYS = ("verdict", "kind", "label")


def _check_cli(case: CliCase, status: int, out_dir: Path) -> tuple[bool, bool, float, str]:
    """Checks one config's exit status and report against its expectations."""
    path = out_dir / case.name / f"{case.run}.txt"
    if not path.exists():
        return False, False, math.nan, f"exit {status}, no report"
    kv = _report(path)
    err = float(kv["consistency_sup"]) if "consistency_sup" in kv else math.nan
    bad = []
    for key, want in case.expect:
        if key == "t_star":
            lo, hi = (float(x) for x in kv["t_blow_interval"].split(","))
            if not lo <= want <= hi:
                bad.append(f"T*={want!r} outside [{lo!r}, {hi!r}]")
        elif key.endswith("~"):
            if not _close(kv[key[:-1]], want, 1e-6):
                bad.append(f"{key[:-1]}={kv[key[:-1]]} vs reference {want}")
        elif kv.get(key) != want:
            bad.append(f"{key}={kv.get(key)} (want {want})")
    wrong = status == 0 and any(
        key in _VERDICT_KEYS and kv.get(key) != want for key, want in case.expect
    )
    if status != 0:
        bad.insert(0, f"exit {status}")
    if bad and not math.isnan(err):
        bad.append(f"consistency_sup={err:.3e}")
    return not bad, wrong, err, "; ".join(bad)


def run_cli_cases(cases, blowup, work: Path) -> list[Outcome]:
    """One ``blowup batch`` call over the round's configs, in this process."""
    from blowup.cli import main

    cfg_dir, out_dir = work / "configs", work / "out"
    for d in (cfg_dir, out_dir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    paths = []
    for case in cases:
        path = cfg_dir / f"{case.name}.cfg"
        path.write_text(case.text)
        paths.append(str(path))

    clock = _ExitClock()
    t0 = time.perf_counter()
    crash = ""
    with contextlib.redirect_stdout(clock), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(["batch", "--configs", *paths, "--out", str(out_dir)])
        except Exception as e:  # the batch died: every config without an exit line fails
            crash = f"{type(e).__name__}: {e}"
    exits = {stem: (status, t) for stem, status, t in clock.exits}

    out, prev = [], t0
    for case in cases:
        if case.name not in exits:
            out.append(Outcome(case.name, prev, prev, False, False, math.nan,
                               f"{case.name}: no exit line {crash}"))
            continue
        status, t = exits[case.name]
        ok, wrong, err, note = _check_cli(case, status, out_dir)
        out.append(Outcome(case.name, prev, t, ok, wrong, err,
                           f"{case.name}: {note}" if note else ""))
        prev = t
    return out


def artifact_bytes(work: Path) -> int:
    return sum(p.stat().st_size for p in (work / "out").rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    make_round: Callable
    run_round: Callable  # (cases, blowup, work_dir) -> list[Outcome]
    err_name: str
    # wall seconds of one round on the 2-core machine this was tuned on, at
    # its usual speed; sets the round count of a run
    round_s: float

    def rounds(self, seconds: float) -> int:
        """Rounds a run of about ``seconds`` plays: at least one."""
        return max(1, round(seconds / self.round_s))


WORKLOADS = {
    w.name: w
    for w in (
        # majorant inversion and the uniform Volterra path do the work
        Workload("global-construct", 1, global_construct_round,
                 lambda cases, blowup, work: run_pipeline_cases(cases, blowup, _check_global),
                 "consistency_sup", 50.0),
        # RK5(4) and the escape ladder only: bypasses picard and volterra
        Workload("blowup-ladder", 2, blowup_ladder_round,
                 lambda cases, blowup, work: run_pipeline_cases(cases, blowup, _check_blowup),
                 "relative error of t_blow_estimate", 3.75),
        # the CLI parse and emit path; piecewise q runs the general Volterra path
        Workload("cli-batch", 3, cli_batch_round, run_cli_cases,
                 "worst consistency_sup of the pipeline reports", 1.67),
    )
}
