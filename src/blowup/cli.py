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
deterministic for a fixed config.  A key left unset takes the
default of the library function it is passed to.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from .classify import classify, classify_scaled
from .errors import (BlowupError, ConfigError, InvalidParameterError, check_int, check_thresholds,
                     check_tol)
from .functions import parse_fn_spec
from .ode import (
    BlowupKind,
    ProblemSpec,
    Trajectory,
    detect_blowup,
    integrate,
)
from .picard import picard_solve, verify_comparison_bound
from .pipeline import majorization_experiment, run_pipeline

__all__ = ["ExperimentConfig", "parse_config", "emit_config", "run_experiment", "main"]

_INT_KEYS = {"m", "k", "n", "J", "grid_size", "max_iter"}
_REAL_KEYS = {"T", "tol", "horizon", "alpha", "u0", "rho"}
_LIST_KEYS = {"a", "b", "thresholds"}
_FN_KEYS = {"q", "h", "g"}
_STR_KEYS = {"run", "out"}
_ALL_KEYS = _INT_KEYS | _REAL_KEYS | _LIST_KEYS | _FN_KEYS | _STR_KEYS
_PROBLEM_KEYS = ("m", "k", "a", "q", "h")


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
    grid_size: Optional[int] = None
    max_iter: Optional[int] = None
    out: Optional[str] = None

    def problem(self) -> ProblemSpec:
        missing = [key for key in _PROBLEM_KEYS if getattr(self, key) is None]
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
    """Checks that no library call makes on every run reading the key.

    A complete problem definition is checked by ProblemSpec itself; other
    parameters (n, T, horizon, ...) are checked by the library at run time.
    """
    errors = []
    run = values.get("run")
    if run is not None and run not in RUNS:
        errors.append(f"run must be one of {', '.join(RUNS)}; got {run!r}")
    elif run is not None and values.get("tol") is not None and "tol" not in _COMMANDS[run][2]:
        errors.append(f"run {run} reads no tol; remove the tol key")
    a = values.get("a")
    if all(values.get(key) is not None for key in _PROBLEM_KEYS):
        try:
            ExperimentConfig(**values).problem()
        except InvalidParameterError as e:
            errors.append(str(e))
    elif a is not None and any(x < 0 for x in a):
        errors.append("a values must be >= 0")
    elif a is not None and not np.isfinite(a).all():
        errors.append("a values must be finite")
    # an empty thresholds list means the default ladder
    checks = ((check_tol, values.get("tol")), (check_thresholds, values.get("thresholds") or None))
    for check, value in checks:
        if value is not None:
            try:
                check(value)
            except InvalidParameterError as e:
                errors.append(str(e))
    return errors


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical config text; parse(emit(cfg)) == cfg."""
    lines = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if val is None:
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


def _fields(col) -> list[str]:
    """One CSV column's fields, each value formatted once, as :func:`_fmt`
    formats it: a float64 array by ``repr`` over its doubles, a list of
    ``str`` as it is, anything else value by value."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        return list(map(repr, col.tolist()))
    if isinstance(col, list) and set(map(type, col)) <= {str}:
        return col
    return list(map(_fmt, col))


def _write_csv(path: Path, header: list[str], columns) -> None:
    """A header row, then one row per index of the equal-length columns."""
    rows = zip(*map(_fields, columns), strict=True)
    path.write_text("\n".join([",".join(header), *map(",".join, rows)]) + "\n")


def _trajectory_csv(path: Path, traj: Trajectory) -> None:
    _write_csv(path, ["t"] + [f"w{i}" for i in range(traj.m)], [traj.ts, *traj.ys.T])


def _majorization_csv(path: Path, table) -> None:
    header = ["j", "t_j", "tau_j", "eps_j", "margin_min"]
    _write_csv(path, header, [[getattr(r, key) for r in table.rows] for key in header])


# ---------------------------------------------------------------------------
# experiment dispatch


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> int:
    """Run cfg's handler and write its report, ``<run>.txt`` in the output
    directory (out_dir, else cfg's ``out``, if any) and on stdout; its
    artifacts land in that directory.  Returns the exit status (0 pass /
    1 verdict failure / 2 numeric or config error)."""
    out = Path(out_dir) if out_dir is not None else (Path(cfg.out) if cfg.out else None)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    try:
        if cfg.run is None:
            raise ConfigError(["missing 'run' key"])
        kv, summary, status = _COMMANDS[cfg.run][0](cfg, out)
    except ConfigError as e:
        return _config_errors(e)
    except BlowupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = "\n".join(f"{key}={_fmt(val)}" for key, val in kv) + "\n\n"
    text += "\n".join(f"# {s}" for s in summary) + "\n"
    if out is not None:
        (out / f"{cfg.run}.txt").write_text(text)
    print(text, end="")
    return status


def _config_errors(e: ConfigError, prefix: str = "") -> int:
    for msg in e.errors:
        print(f"{prefix}config error: {msg}", file=sys.stderr)
    return 2


def _need(cfg: ExperimentConfig, *keys: str) -> None:
    if any(getattr(cfg, key) is None for key in keys):
        raise ConfigError([f"{cfg.run} needs keys: {', '.join(keys)}"])


def _given(cfg: ExperimentConfig, *keys: str, **renamed: str) -> dict:
    """Keyword arguments for the config keys that are set, so that every
    unset key takes the called function's own default.  ``renamed`` maps a
    parameter name to its config key; function specs are parsed.  An empty
    ``thresholds`` list counts as unset: it means the default ladder."""
    out = {}
    for param, key in [(key, key) for key in keys] + list(renamed.items()):
        val = getattr(cfg, key)
        if val is None or (key == "thresholds" and not val):
            continue
        out[param] = parse_fn_spec(val) if key in _FN_KEYS else val
    return out


def _run_classify(cfg: ExperimentConfig, out: Optional[Path]):
    _need(cfg, "h", "n")
    h = parse_fn_spec(cfg.h)
    verdict = classify(h, cfg.n) if cfg.alpha is None else classify_scaled(h, cfg.n, cfg.alpha)
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
    return kv, [f"{h.spec_text}, n={cfg.n}: {verdict}"], 0


def _run_integrate(cfg: ExperimentConfig, out: Optional[Path]):
    T = cfg.T if cfg.T is not None else 5.0
    traj = integrate(cfg.problem(), T, **_given(cfg, "tol"))
    if out is not None:
        _trajectory_csv(out / "trajectory.csv", traj)
    kv = [
        ("reached_T", traj.event is None),
        ("t_end", traj.t_end),
        ("nodes", len(traj.ts)),
        ("final_state", tuple(traj.ys[-1])),
    ]
    if traj.event is not None:
        kv += [("event", traj.event), ("t_event", traj.t_end)]
    return kv, [f"reached T = {T}" if traj.event is None else "escaped before T"], 0


def _run_detect_blowup(cfg: ExperimentConfig, out: Optional[Path]):
    rep = detect_blowup(cfg.problem(), **_given(cfg, "thresholds", "horizon", "tol"))
    kv = [
        ("kind", rep.kind.value),
        ("horizon", rep.horizon),
        ("t_blow_estimate", rep.t_blow_estimate),
        ("t_blow_interval", rep.t_blow_interval),
        ("t_blow_method", rep.t_blow_method),
        ("escapes", len(rep.escape_thresholds)),
    ]
    for M, tM in rep.escape_thresholds:
        kv.append((f"t_escape_{M:g}", tM))
    if rep.kind is BlowupKind.BLOW_UP:
        summary = f"blow-up near t = {rep.t_blow_estimate}"
    elif rep.t_blow_estimate is None:
        summary = f"global up to horizon {rep.horizon}"
    else:
        summary = f"global up to horizon {rep.horizon}; blow-up at t = {rep.t_blow_estimate} (tail)"
    return kv, [summary], 0


def _run_construct(cfg: ExperimentConfig, out: Optional[Path]):
    _need(cfg, "h", "n", "b")
    T = cfg.T if cfg.T is not None else 1.0
    tower = picard_solve(parse_fn_spec(cfg.h), cfg.n, cfg.b, T, **_given(cfg, "tol", "max_iter", "q"))
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
    if out is not None:
        # the grid is formatted once and repeated for each iterate
        grid, count = _fields(tower.grid), len(tower.iterates)
        js = list(chain.from_iterable([str(j)] * len(grid) for j in range(count)))
        _write_csv(out / "iterates.csv", ["j", "t", "v_j"],
                   [js, grid * count, np.concatenate(tower.iterates)])
    state = "converged" if tower.converged else "did not converge"
    return kv, [f"tower {state} in {tower.iterations} iterations"], 0 if tower.converged else 1


def _run_majorize(cfg: ExperimentConfig, out: Optional[Path]):
    """The reduced problem of order n from a, solved on [0, horizon] at tol
    (50 and 1e-12 when unset), read up to where the run stops."""
    _need(cfg, "h", "n", "a")
    q = parse_fn_spec(cfg.q if cfg.q is not None else "constant(1.0)")
    p = ProblemSpec(m=check_int("n", cfg.n), k=0, a=cfg.a, q=q, h=parse_fn_spec(cfg.h))
    u = integrate(p, cfg.horizon if cfg.horizon is not None else 50.0,
                  cfg.tol if cfg.tol is not None else 1e-12)
    table = majorization_experiment(p, u, **_given(cfg, "b", "J", "rho"))
    if out is not None:
        _majorization_csv(out / "majorization.csv", table)
    kv = [
        ("rows", len(table.rows)),
        ("passed", table.passed),
        ("levels_reachable", table.levels_reachable),
        ("min_margin_rel", min((r.margin_min_rel for r in table.rows), default=None)),
    ]
    summary = ["all margins nonnegative" if table.passed else "margin violated",
               table.note or "all levels reached"]
    return kv, summary, 0 if table.passed else 1


def _run_verify_comparison(cfg: ExperimentConfig, out: Optional[Path]):
    _need(cfg, "g", "n", "u0")
    T = cfg.T if cfg.T is not None else 1.0
    rep = verify_comparison_bound(parse_fn_spec(cfg.g), cfg.n, cfg.u0, T, **_given(cfg, "grid_size"))
    kv = [
        ("passed", rep.passed),
        ("min_slack", rep.min_slack),
        ("min_slack_rel", rep.min_slack_rel),
        ("t_at_min", rep.t_at_min),
        ("grid_size", rep.grid_size),
    ]
    summary = "comparison bound holds on the grid" if rep.passed else "comparison bound violated"
    return kv, [summary], 0 if rep.passed else 1


def _run_pipeline_cmd(cfg: ExperimentConfig, out: Optional[Path]):
    rep = run_pipeline(cfg.problem(), **_given(cfg, "horizon", "tol", "thresholds", "rho", majorize_levels="J"))
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
        kv += [("t_blow_estimate", rep.blowup.t_blow_estimate),
               ("t_blow_method", rep.blowup.t_blow_method)]
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
            _majorization_csv(out / "majorization.csv", rep.majorization)
    return kv, [rep.label] + list(rep.notes), 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# argument parsing

# run -> (handler, help, flags beyond --config and --out); each flag sets
# the config key of its name
_COMMANDS = {
    "classify": (_run_classify, "integral test for the nonlinearity", ("h", "n", "alpha")),
    "integrate": (_run_integrate, "integrate the problem up to T", ("T", "tol")),
    "detect-blowup": (_run_detect_blowup, "escape ladder and blow-up time", ("horizon", "tol")),
    "construct": (_run_construct, "monotone tower construction", ("T", "tol")),
    "majorize": (_run_majorize, "level-doubling comparison experiment", ("J", "horizon", "tol")),
    "verify-lemma22": (_run_verify_comparison, "check the comparison inequality",
                       ("n", "g", "u0", "T", "grid_size")),
    "pipeline": (_run_pipeline_cmd, "full classification pipeline", ("horizon", "tol")),
}
RUNS = tuple(_COMMANDS)
_FLAG_HELP = {"config": "config file path", "out": "output directory"}


def _flag_type(key: str):
    if key in _INT_KEYS:
        return int
    if key in _REAL_KEYS:
        return float
    return Path if key == "config" else str


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="blowup",
        description="Blow-up vs. global existence for nonlinear Cauchy problems",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_handler, help_text, keys) in _COMMANDS.items():
        s = subs.add_parser(command, help=help_text)
        for key in ("config", "out") + keys:
            s.add_argument("--" + key.replace("_", "-"), dest=key, type=_flag_type(key),
                           help=_FLAG_HELP.get(key))
    s = subs.add_parser("batch", help="run several configs sequentially")
    s.add_argument("--configs", nargs="+", type=Path, required=True)
    s.add_argument("--out", type=Path, required=True)
    return parser


def _run_batch(configs, out: Path) -> int:
    worst = 0
    for cfg_path in configs:
        try:
            cfg = parse_config(cfg_path.read_text())
        except ConfigError as e:
            worst = max(worst, _config_errors(e, prefix=f"{cfg_path}: "))
            continue
        status = run_experiment(cfg, out_dir=out / cfg_path.stem)
        print(f"[{cfg_path.name}] exit {status}")
        worst = max(worst, status)
    return worst


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "batch":
        return _run_batch(args.configs, args.out)
    # the config file, then every flag given on the command line
    overrides = {key: val for key, val in vars(args).items() if key in _ALL_KEYS and val is not None}
    try:
        base = parse_config(args.config.read_text()) if args.config is not None else ExperimentConfig()
    except ConfigError as e:
        return _config_errors(e)
    cfg = replace(base, run=args.command, **overrides)
    errors = _semantic_errors(asdict(cfg))  # flags get the config file's checks
    if errors:
        return _config_errors(ConfigError(errors))
    return run_experiment(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
