"""Outside-in layer trace of the blowup library.

:class:`Tracer` wraps the public entry points of each module from outside
the library: every module namespace that holds one of the functions gets
the wrapper (``pipeline`` and ``cli`` each hold their own ``picard_solve``),
and the hot methods get counters.  Nothing under ``src/`` changes, and
leaving the ``with`` block puts every original back.

Spans are kept in memory as [name, start, end, parent]; a layer's self time
is the sum over its spans of the span's duration minus the time its child
spans cover.  A call into a layer made while that layer is already on the
stack (``weighted_volterra`` calling ``partial_volterra``) is not a new span:
only the outermost call into a layer is counted.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# span name -> the layer whose re-entry is not counted again
_LAYER = {
    "volterra.uniform": "volterra",
    "volterra.general": "volterra",
}

PER_LAYER = (
    "picard.invert.calls", "picard.invert.targets", "picard.invert.quad_calls",
    "picard.invert.self_s", "picard.solve.calls", "picard.solve.self_s",
    "picard.tower.nodes", "picard.tower.iterations", "picard.tower.cap_hits",
    "volterra.uniform.calls", "volterra.uniform.nodes", "volterra.uniform.self_s",
    "volterra.uniform.us_per_node",
    "volterra.general.calls", "volterra.general.nodes", "volterra.general.self_s",
    "volterra.general.us_per_node",
    "ode.solves", "ode.self_s", "ode.steps", "ode.rhs_calls", "ode.rhs_per_step",
    "ode.dense.calls", "ode.dense.self_s",
    "functions.scalar_calls", "functions.array_elems",
    "classify.calls", "classify.self_s", "classify.panels",
    "pipeline.self_s", "pipeline.lift.self_s", "pipeline.majorize.calls",
    "pipeline.majorize.self_s",
    "cli.configs", "cli.self_s", "cli.bytes_written",
    "trace.overhead_s",
)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_node"):
        return "us/node"
    if name == "ode.rhs_per_step":
        return "rhs/step"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def _uniform(grid) -> bool:
    d = np.diff(np.asarray(grid, dtype=float))
    return len(d) > 0 and bool(np.allclose(d, d[0], rtol=1e-12, atol=1e-15 * max(1.0, d[0])))


def _steps(result) -> int:
    traj = getattr(result, "trajectory", result)  # BlowupEvent / BlowupReport carry one
    return 0 if traj is None else len(traj.ts) - 1


class Tracer:
    """Install with ``with Tracer(blowup) as tr:``; read ``tr.metrics()``."""

    def __init__(self, blowup):
        self.blowup = blowup
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._hot = {}  # counter name -> itertools.count, for per-call hot paths

    # -- spans ---------------------------------------------------------------

    def _layer(self, name):
        return _LAYER.get(name, name)

    def span(self, fn, name_of, on_result=None):
        """Wrap ``fn`` in a span named ``name_of(arguments)``.

        ``on_result(name, arguments, result)`` adds the call's counts.
        """
        sig = inspect.signature(fn)
        spans, stack, layer = self.spans, self._stack, self._layer

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            name = name_of(bound.arguments)
            if stack and layer(spans[stack[-1]][0]) == layer(name):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            self.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(name, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, name, *, size_of=None):
        """Wrap ``fn`` with a call counter (or an element counter)."""
        if size_of is None:
            tick = self._hot.setdefault(name, itertools.count())

            def counted(*args, **kwargs):
                next(tick)
                return fn(*args, **kwargs)
        else:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += size_of(args)
                return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ---------------------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        """Replace ``original`` in every blowup module namespace that holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "blowup" or modname.startswith("blowup.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        b, c = self.blowup, self.counts
        import blowup.cli as cli
        import blowup.picard as picard

        def invert(name, args, res):
            c["picard.invert.targets"] += len(np.atleast_1d(args["t_targets"]))

        def solve(name, args, tower):
            c["picard.tower.nodes"] += len(tower.grid)
            c["picard.tower.iterations"] += tower.iterations
            if len(tower.grid) >= args["grid_cap"] and tower.discretization_gap > args["tol"] / 4:
                c["picard.tower.cap_hits"] += 1

        def volterra(name, args, res):
            c[name + ".nodes"] += len(res)

        def ode(name, args, res):
            c["ode.steps"] += _steps(res)

        def classified(name, args, verdict):
            c["classify.panels"] += verdict.panels_used

        def fixed(name):
            return lambda args: name

        # weighted_volterra on a uniform grid is the uniform path; any other
        # grid, and the blockwise partial_volterra, is the general path
        def volterra_kind(args):
            return "volterra.uniform" if _uniform(args["grid"]) else "volterra.general"

        spans = [
            (b.classify, fixed("classify"), classified),
            (b.classify_scaled, fixed("classify"), classified),
            (b.integrate, fixed("ode.solve"), ode),
            (b.detect_blowup, fixed("ode.solve"), ode),
            (b.picard_solve, fixed("picard.solve"), solve),
            (b.solve_autonomous_quadrature, fixed("picard.invert"), invert),
            (b.weighted_volterra, volterra_kind, volterra),
            (b.partial_volterra, fixed("volterra.general"), volterra),
            (b.lift_solution, fixed("pipeline.lift"), None),
            (b.majorization_experiment, fixed("pipeline.majorize"), None),
            (b.run_pipeline, fixed("pipeline"), None),
            (cli.main, fixed("cli"), None),
        ]
        for fn, name_of, on_result in spans:
            self._patch_everywhere(fn, self.span(fn, name_of, on_result))
        # run_experiment runs inside main's span; count the configs it runs
        self._patch_everywhere(cli.run_experiment, self.counter(cli.run_experiment, "cli.configs"))

        self._patch_attr(b.Trajectory, "__call__",
                         self.span(b.Trajectory.__call__, fixed("ode.dense")))
        self._patch_attr(b.ProblemSpec, "rhs", self.counter(b.ProblemSpec.rhs, "ode.rhs_calls"))
        self._patch_attr(b.ScalarFn, "__call__",
                         self.counter(b.ScalarFn.__call__, "functions.scalar_calls"))
        self._patch_attr(b.ScalarFn, "eval_array",
                         self.counter(b.ScalarFn.eval_array, "functions.array_elems",
                                      size_of=lambda args: int(np.size(args[1]))))
        self._patch_attr(picard, "quad", self.counter(picard.quad, "picard.invert.quad_calls"))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for name, tick in self._hot.items():
            self.counts[name] += next(tick)
        self._hot.clear()
        return False

    # -- results ----------------------------------------------------------------

    def self_times(self, duration=lambda start, end: end - start) -> Counter:
        """Per span name: the spans' durations minus their children's."""
        spent = [duration(start, end) for _name, start, end, _parent in self.spans]
        child = [0.0] * len(self.spans)
        for (_name, _start, _end, parent), d in zip(self.spans, spent):
            if parent >= 0:
                child[parent] += d
        out = Counter()
        for (name, *_rest), d, inner in zip(self.spans, spent, child):
            out[name] += d - inner
        return out

    def metrics(self, overhead_s: float, duration=lambda start, end: end - start) -> dict:
        c, st = self.counts, self.self_times(duration)
        m = {}
        for name in PER_LAYER:
            m[name] = st[name[: -len(".self_s")]] if name.endswith(".self_s") else c[name]
        m["ode.solves"] = c["ode.solve.calls"]
        m["ode.self_s"] = st["ode.solve"]
        for kind in ("uniform", "general"):
            nodes = c[f"volterra.{kind}.nodes"]
            m[f"volterra.{kind}.us_per_node"] = st[f"volterra.{kind}"] / nodes * 1e6 if nodes else 0.0
        m["ode.rhs_per_step"] = c["ode.rhs_calls"] / c["ode.steps"] if c["ode.steps"] else 0.0
        m["trace.overhead_s"] = overhead_s
        return m

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": self.spans}
        ))
