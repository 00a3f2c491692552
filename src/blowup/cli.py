"""Config parsing, experiment dispatch, and report/CSV emission.

Configs are line-oriented ``key = value`` text with ``#`` comments:

    m = 1
    k = 0
    a = [1]
    q = constant(1.0)
    h = power(2.0)
    run = detect-blowup

Reports are flat ``key=value`` lines (machine-parseable) followed by a
short human summary; CSVs always carry a header row.  All output is
deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .classify import classify, classify_scaled
from .errors import BlowupError, ConfigError, InvalidParameterError
from .functions import parse_fn_spec
from .ode import (
    DEFAULT_THRESHOLDS,
    BlowupEvent,
    BlowupKind,
    ProblemSpec,
    Trajectory,
    detect_blowup,
    integrate,
)
from .picard import picard_solve, verify_comparison_bound
from .pipeline import PipelineOptions, run_pipeline

__all__ = ["ExperimentConfig", "parse_config", "emit_config", "run_experiment", "main"]

RUNS = (
    "classify",
    "integrate",
    "detect-blowup",
    "construct",
    "majorize",
    "verify-lemma22",
    "pipeline",
)

_INT_KEYS = {"m", "k", "n", "J", "seed", "grid_size", "max_iter"}
_REAL_KEYS = {"T", "tol", "horizon", "alpha", "u0", "rho"}
_LIST_KEYS = {"a", "b", "thresholds"}
_FN_KEYS = {"q", "h", "g"}
_STR_KEYS = {"run", "out"}
_ALL_KEYS = _INT_KEYS | _REAL_KEYS | _LIST_KEYS | _FN_KEYS | _STR_KEYS


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; function specs stay as text."""

    run: Optional[str] = None
    m: Optional[int] = None
    k: Optional[int] = None
    n: Optional[int] = None
    a: Optional[tuple] = None
    b: Optional[tuple] = None
    q: Optional[str] = None
    h: Optional[str] = None
    g: Optional[str] = None
    T: Optional[float] = None
    tol: Optional[float] = None
    horizon: Optional[float] = None
    alpha: Optional[float] = None
    u0: Optional[float] = None
    rho: Optional[float] = None
    thresholds: Optional[tuple] = None
    J: Optional[int] = None
    seed: int = 0
    grid_size: Optional[int] = None
    max_iter: Optional[int] = None
    out: Optional[str] = None

    def problem(self) -> ProblemSpec:
        missing = [key for key in ("m", "k", "a", "q", "h") if getattr(self, key) is None]
        if missing:
            raise ConfigError([f"missing keys for a problem definition: {', '.join(missing)}"])
        return ProblemSpec(
            m=self.m, k=self.k, a=self.a, q=parse_fn_spec(self.q), h=parse_fn_spec(self.h)
        )


def _parse_scalar(key: str, raw: str):
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{key} must be an integer") from None
    if key in _REAL_KEYS:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"{key} must be a real number") from None
    return raw


def _parse_list(key: str, raw: str) -> tuple:
    body = raw.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"{key} must be a [..] list")
    inner = body[1:-1].strip()
    if not inner:
        return ()
    try:
        return tuple(float(tok) for tok in inner.split(","))
    except ValueError:
        raise ValueError(f"{key} must list real numbers") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; raises ConfigError carrying every line error."""
    values: dict = {}
    errors: list[str] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            if key in _LIST_KEYS:
                values[key] = _parse_list(key, raw)
            elif key in _FN_KEYS:
                values[key] = parse_fn_spec(raw).spec_text
            else:
                values[key] = _parse_scalar(key, raw)
        except (ValueError, InvalidParameterError) as e:
            errors.append(f"line {lineno}: {e}")

    errors.extend(_semantic_errors(values))
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**values)


def _semantic_errors(values: dict) -> list[str]:
    errors = []
    run = values.get("run")
    if run is not None and run not in RUNS:
        errors.append(f"run must be one of {', '.join(RUNS)}; got {run!r}")
    m, k = values.get("m"), values.get("k")
    if m is not None and m < 1:
        errors.append("m must satisfy m >= 1")
    if m is not None and k is not None and not (0 <= k <= m - 1):
        errors.append("k must satisfy 0 <= k <= m-1")
    a = values.get("a")
    if a is not None and m is not None and len(a) != m:
        errors.append(f"a must list exactly m = {m} values")
    if a is not None and any(x < 0 for x in a):
        errors.append("a values must be >= 0")
    tol = values.get("tol")
    if tol is not None and not (1e-14 < tol < 1e-2):
        errors.append("tol must lie in (1e-14, 1e-2)")
    th = values.get("thresholds")
    if th is not None:
        if any(x < 10 for x in th):
            errors.append("thresholds must each be >= 10")
        if any(b <= a_ for a_, b in zip(th, th[1:])) is True:
            errors.append("thresholds must be strictly increasing")
    n = values.get("n")
    if n is not None and n < 1:
        errors.append("n must satisfy n >= 1")
    return errors


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical config text; parse(emit(cfg)) == cfg."""
    lines = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if val is None:
            continue
        if f.name == "seed" and val == 0:
            continue
        if isinstance(val, tuple):
            body = ", ".join(repr(float(x)) for x in val)
            lines.append(f"{f.name} = [{body}]")
        else:
            lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# report / CSV helpers


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (tuple, list, np.ndarray)):
        return ",".join(_fmt(v) for v in value)
    if value is None:
        return "none"
    return str(value)


def _write_report(path: Optional[Path], kv: list[tuple], summary: list[str]) -> str:
    lines = [f"{key}={_fmt(val)}" for key, val in kv]
    text = "\n".join(lines) + "\n\n" + "\n".join(f"# {s}" for s in summary) + "\n"
    if path is not None:
        path.write_text(text)
    return text


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _trajectory_csv(path: Path, traj: Trajectory) -> None:
    header = ["t"] + [f"w{i}" for i in range(traj.m)]
    rows = [[t] + list(y) for t, y in zip(traj.ts, traj.ys)]
    _write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# experiment dispatch


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> int:
    """Dispatch one experiment; returns the exit status (0 pass / 1 verdict
    failure / 2 numeric or config error).  Artifacts land in out_dir."""
    return _guarded(cfg, out_dir, lambda cfg, out: _HANDLERS[cfg.run](cfg, out))


def _guarded(cfg: ExperimentConfig, out_dir, handler) -> int:
    """Run handler(cfg, out), mapping config and numeric errors to exit 2."""
    out = Path(out_dir) if out_dir is not None else (Path(cfg.out) if cfg.out else None)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    try:
        if cfg.run is None:
            raise ConfigError(["missing 'run' key"])
        return handler(cfg, out)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except BlowupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _report_path(out: Optional[Path], name: str) -> Optional[Path]:
    return (out / name) if out is not None else None


def _run_classify(cfg: ExperimentConfig, out: Optional[Path]) -> int:
    if cfg.h is None or cfg.n is None:
        raise ConfigError(["classify needs keys: h, n"])
    h = parse_fn_spec(cfg.h)
    if cfg.alpha is not None:
        verdict = classify_scaled(h, cfg.n, cfg.alpha)
    else:
        verdict = classify(h, cfg.n)
    print(f"{h.spec_text} with n={cfg.n}: {verdict}")
    kv = [
        ("verdict", verdict.verdict.value),
        ("estimate", verdict.estimate),
        ("panels_used", verdict.panels_used),
        ("method", verdict.method.value),
        ("cumulative", verdict.evidence.get("cumulative")),
        ("last_panel", verdict.evidence.get("last_panel")),
        ("cap_hit", verdict.evidence.get("cap_hit")),
        ("tail_bound", verdict.evidence.get("tail_bound")),
    ]
    text = _write_report(_report_path(out, "classify.txt"), kv,
                         [f"{h.spec_text}, n={cfg.n}: {verdict}"])
    print(text, end="")
    return 0


def _run_integrate(cfg: ExperimentConfig, out: Optional[Path], csv_path: Optional[Path] = None) -> int:
    """``csv_path`` (the --csv flag) also gets the trajectory CSV."""
    p = cfg.problem()
    T = cfg.T if cfg.T is not None else 5.0
    tol = cfg.tol if cfg.tol is not None else 1e-9
    result = integrate(p, T, tol)
    escaped = isinstance(result, BlowupEvent)
    traj = result.trajectory if escaped else result
    if csv_path is not None:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        _trajectory_csv(csv_path, traj)
        print(f"wrote {csv_path} ({len(traj.ts)} rows)")
    if out is not None:
        _trajectory_csv(out / "trajectory.csv", traj)
    kv = [
        ("reached_T", not escaped),
        ("t_end", traj.t_end),
        ("nodes", len(traj.ts)),
        ("final_state", tuple(traj.ys[-1])),
    ]
    if escaped:
        kv += [("event", result.reason), ("t_event", result.t_event)]
    text = _write_report(_report_path(out, "integrate.txt"), kv,
                         ["escaped before T" if escaped else f"reached T = {T}"])
    print(text, end="")
    return 0


def _run_detect_blowup(cfg: ExperimentConfig, out: Optional[Path]) -> int:
    p = cfg.problem()
    rep = detect_blowup(
        p,
        thresholds=cfg.thresholds or DEFAULT_THRESHOLDS,
        horizon=cfg.horizon if cfg.horizon is not None else 50.0,
        tol=cfg.tol if cfg.tol is not None else 1e-10,
    )
    kv = [
        ("kind", rep.kind.value),
        ("horizon", rep.horizon),
        ("t_blow_estimate", rep.t_blow_estimate),
        ("t_blow_interval", rep.t_blow_interval),
        ("escapes", len(rep.escape_thresholds)),
    ]
    for M, tM in rep.escape_thresholds:
        kv.append((f"t_escape_{M:g}", tM))
    summary = (
        [f"blow-up near t = {rep.t_blow_estimate}"]
        if rep.kind is BlowupKind.BLOW_UP
        else [f"global up to horizon {rep.horizon}"]
    )
    text = _write_report(_report_path(out, "detect-blowup.txt"), kv, summary)
    print(text, end="")
    return 0


def _run_construct(cfg: ExperimentConfig, out: Optional[Path]) -> int:
    if cfg.h is None or cfg.n is None or cfg.b is None:
        raise ConfigError(["construct needs keys: h, n, b (and T)"])
    tower = picard_solve(
        parse_fn_spec(cfg.h),
        cfg.n,
        cfg.b,
        cfg.T if cfg.T is not None else 1.0,
        tol=cfg.tol if cfg.tol is not None else 1e-10,
        max_iter=cfg.max_iter if cfg.max_iter is not None else 60,
        q=parse_fn_spec(cfg.q) if cfg.q is not None else None,
    )
    if out is not None:
        rows = []
        for j, it in enumerate(tower.iterates):
            rows.extend([j, t, v] for t, v in zip(tower.grid, it))
        _write_csv(out / "iterates.csv", ["j", "t", "v_j"], rows)
    kv = [
        ("converged", tower.converged),
        ("iterations", tower.iterations),
        ("sup_gap", tower.sup_gap),
        ("discretization_gap", tower.discretization_gap),
        ("grid_points", len(tower.grid)),
        ("monotone_slack", tower.monotone_slack),
        ("majorant_slack", tower.majorant_slack),
        ("v_end", float(tower.solution[-1])),
    ]
    text = _write_report(_report_path(out, "construct.txt"), kv,
                         [f"tower {'converged' if tower.converged else 'did not converge'} "
                          f"in {tower.iterations} iterations"])
    print(text, end="")
    return 0 if tower.converged else 1


def _run_majorize(cfg: ExperimentConfig, out: Optional[Path]) -> int:
    from .pipeline import majorization_experiment

    if cfg.h is None or cfg.n is None or cfg.a is None:
        raise ConfigError(["majorize needs keys: h, n, a (reduced data)"])
    q = parse_fn_spec(cfg.q) if cfg.q is not None else parse_fn_spec("constant(1.0)")
    table = majorization_experiment(
        q,
        parse_fn_spec(cfg.h),
        cfg.n,
        cfg.a,
        b=cfg.b,
        J=cfg.J if cfg.J is not None else 8,
        horizon=cfg.horizon if cfg.horizon is not None else 50.0,
        rho=cfg.rho if cfg.rho is not None else 2.0,
    )
    if out is not None:
        _write_csv(
            out / "majorization.csv",
            ["j", "t_j", "tau_j", "eps_j", "margin_min"],
            [[r.j, r.t_j, r.tau_j, r.eps_j, r.margin_min] for r in table.rows],
        )
    kv = [
        ("rows", len(table.rows)),
        ("passed", table.passed),
        ("levels_reachable", table.levels_reachable),
        ("min_margin_rel", min((r.margin_min_rel for r in table.rows), default=None)),
    ]
    text = _write_report(_report_path(out, "majorize.txt"), kv,
                         ["all margins nonnegative" if table.passed else "margin violated",
                          table.note or "all levels reached"])
    print(text, end="")
    return 0 if table.passed else 1


def _run_verify_comparison(cfg: ExperimentConfig, out: Optional[Path]) -> int:
    if cfg.g is None or cfg.n is None or cfg.u0 is None:
        raise ConfigError(["verify-lemma22 needs keys: g, n, u0 (and T)"])
    rep = verify_comparison_bound(
        parse_fn_spec(cfg.g),
        cfg.n,
        cfg.u0,
        cfg.T if cfg.T is not None else 1.0,
        cfg.grid_size if cfg.grid_size is not None else 200,
    )
    kv = [
        ("passed", rep.passed),
        ("min_slack", rep.min_slack),
        ("min_slack_rel", rep.min_slack_rel),
        ("t_at_min", rep.t_at_min),
        ("grid_size", rep.grid_size),
    ]
    text = _write_report(_report_path(out, "verify-lemma22.txt"), kv,
                         ["comparison bound holds on the grid" if rep.passed
                          else "comparison bound violated"])
    print(text, end="")
    return 0 if rep.passed else 1


def _run_pipeline_cmd(cfg: ExperimentConfig, out: Optional[Path]) -> int:
    p = cfg.problem()
    opts = PipelineOptions(
        tol=cfg.tol if cfg.tol is not None else 1e-10,
        thresholds=cfg.thresholds or DEFAULT_THRESHOLDS,
        majorize_levels=cfg.J if cfg.J is not None else 6,
        rho=cfg.rho if cfg.rho is not None else 2.0,
    )
    rep = run_pipeline(p, horizon=cfg.horizon if cfg.horizon is not None else 5.0, opts=opts)
    kv = [
        ("label", rep.label),
        ("verdict", rep.classification.verdict.value),
        ("method", rep.classification.method.value),
        ("estimate", rep.classification.estimate),
        ("n", rep.reduced.n),
        ("passed", rep.passed),
    ]
    if rep.construction is not None:
        kv += [
            ("consistency_sup", rep.construction.consistency_sup),
            ("tower_iterations", rep.construction.tower_iterations),
        ]
    if rep.blowup is not None:
        kv += [("t_blow_estimate", rep.blowup.t_blow_estimate)]
    if rep.majorization is not None:
        kv += [("majorization_passed", rep.majorization.passed)]
    if out is not None:
        if rep.constructed is not None:
            _trajectory_csv(out / "constructed.csv", rep.constructed)
        if rep.direct is not None:
            _trajectory_csv(out / "direct.csv", rep.direct)
        if rep.blowup is not None and rep.blowup.trajectory is not None:
            _trajectory_csv(out / "probe.csv", rep.blowup.trajectory)
        if rep.majorization is not None:
            _write_csv(
                out / "majorization.csv",
                ["j", "t_j", "tau_j", "eps_j", "margin_min"],
                [[r.j, r.t_j, r.tau_j, r.eps_j, r.margin_min] for r in rep.majorization.rows],
            )
    text = _write_report(_report_path(out, "pipeline.txt"), kv,
                         [rep.label] + list(rep.notes))
    print(text, end="")
    return 0 if rep.passed else 1


_HANDLERS = {
    "classify": _run_classify,
    "integrate": _run_integrate,
    "detect-blowup": _run_detect_blowup,
    "construct": _run_construct,
    "majorize": _run_majorize,
    "verify-lemma22": _run_verify_comparison,
    "pipeline": _run_pipeline_cmd,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("--config", type=Path, help="config file path")
    sub.add_argument("--out", type=Path, help="output directory")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--tol", type=float, default=None)


def _load_cfg(args, run: str, overrides: dict) -> ExperimentConfig:
    base: dict = {}
    if getattr(args, "config", None) is not None:
        parsed = parse_config(Path(args.config).read_text())
        base = {f.name: getattr(parsed, f.name) for f in fields(parsed)}
    base["run"] = run
    for key, val in overrides.items():
        if val is not None:
            base[key] = val
    if getattr(args, "seed", None) is not None:
        base["seed"] = args.seed
    if getattr(args, "tol", None) is not None:
        base["tol"] = args.tol
    if getattr(args, "out", None) is not None:
        base["out"] = str(args.out)
    return ExperimentConfig(**base)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blowup",
        description="Blow-up vs. global existence for nonlinear Cauchy problems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("classify", help="integral test for the nonlinearity")
    _add_common(s)
    s.add_argument("--h", dest="h")
    s.add_argument("--n", dest="n", type=int)
    s.add_argument("--alpha", dest="alpha", type=float)

    s = subs.add_parser("integrate", help="integrate the problem up to T")
    _add_common(s)
    s.add_argument("--T", dest="T", type=float)
    s.add_argument("--csv", dest="csv", type=Path)

    s = subs.add_parser("detect-blowup", help="escape ladder and blow-up time")
    _add_common(s)
    s.add_argument("--horizon", dest="horizon", type=float)

    s = subs.add_parser("construct", help="monotone tower construction")
    _add_common(s)
    s.add_argument("--T", dest="T", type=float)

    s = subs.add_parser("majorize", help="level-doubling comparison experiment")
    _add_common(s)
    s.add_argument("--J", dest="J", type=int)
    s.add_argument("--horizon", dest="horizon", type=float)

    s = subs.add_parser("verify-lemma22", help="check the comparison inequality")
    _add_common(s)
    s.add_argument("--n", dest="n", type=int)
    s.add_argument("--g", dest="g")
    s.add_argument("--u0", dest="u0", type=float)
    s.add_argument("--T", dest="T", type=float)
    s.add_argument("--grid-size", dest="grid_size", type=int)

    s = subs.add_parser("pipeline", help="full classification pipeline")
    _add_common(s)
    s.add_argument("--horizon", dest="horizon", type=float)

    s = subs.add_parser("batch", help="run several configs sequentially")
    s.add_argument("--configs", nargs="+", type=Path, required=True)
    s.add_argument("--out", type=Path, required=True)

    args = parser.parse_args(argv)

    if args.command == "batch":
        worst = 0
        for cfg_path in args.configs:
            sub_out = args.out / cfg_path.stem
            try:
                cfg = parse_config(cfg_path.read_text())
            except ConfigError as e:
                for msg in e.errors:
                    print(f"{cfg_path}: config error: {msg}", file=sys.stderr)
                worst = max(worst, 2)
                continue
            status = run_experiment(cfg, out_dir=sub_out)
            print(f"[{cfg_path.name}] exit {status}")
            worst = max(worst, status)
        return worst

    override_keys = ("h", "n", "alpha", "T", "horizon", "J", "g", "u0", "grid_size")
    overrides = {key: getattr(args, key, None) for key in override_keys}
    try:
        cfg = _load_cfg(args, args.command, overrides)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2

    if args.command == "integrate" and args.csv is not None:
        return _guarded(cfg, args.out, functools.partial(_run_integrate, csv_path=args.csv))
    return run_experiment(cfg, out_dir=args.out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
