"""The library's one quadrature rule, for the majorant's F (picard), the
dichotomy integral I(h, n) (classify) and the integral of q (pipeline)."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericFailureError

QUAD_TOL = 1e-12      # relative error allowed on each starting panel
Y_MAX = math.log(np.finfo(float).max)  # log of the largest double, the end of the float range


@functools.cache
def gauss_rules():
    """20-point Gauss-Legendre checked by 11-point (odd: it sees a jump at a
    panel's centre, where two even rules agree), as read-only (x, w) pairs.
    Built on first use and kept, so an import runs no LAPACK."""
    rules = np.polynomial.legendre.leggauss(20), np.polynomial.legendre.leggauss(11)
    for x, w in rules:
        x.setflags(write=False)
        w.setflags(write=False)
    return rules


def panels(f, edges: np.ndarray):
    """The panel edges after halving each panel until the two rules agree to
    QUAD_TOL of |its first value|, and the panels' integrals of f (vectorized).

    Each round evaluates f only on the halves of the panels the round before
    split; the rules still run over every panel's values at once, so each
    panel's sum, and with it each split and each result, is the one a full
    evaluation gives bit for bit (a BLAS matrix-vector product may sum a row
    differently with the rows around it)."""
    (x20, w20), (x11, w11) = gauss_rules()
    x, budget = np.concatenate([x20, x11]), None
    fv, new = np.empty((len(edges) - 1, len(x))), slice(None)
    for _ in range(64):
        mid, half = (edges[1:] + edges[:-1]) / 2.0, np.diff(edges) / 2.0
        fv[new] = f(mid[new, None] + half[new, None] * x)
        val = half * (fv[:, : len(w20)] @ w20)
        budget = QUAD_TOL * np.abs(val) if budget is None else budget
        bad = np.abs(val - half * (fv[:, len(w20) :] @ w11)) > budget
        if not bad.any():
            return edges, val
        edges = np.insert(edges, np.flatnonzero(bad) + 1, mid[bad])
        budget, fv = np.repeat(budget, bad + 1), np.repeat(fv, bad + 1, axis=0)
        first = np.flatnonzero(bad) + np.arange(np.count_nonzero(bad))  # split panels' first halves
        new = np.column_stack([first, first + 1]).ravel()
    raise NumericFailureError(f"integral not resolved to {QUAD_TOL} on [{edges[0]:.17g}, {edges[-1]:.17g}]")


def integral(f, edges) -> float:
    """The integral of f from edges[0] to edges[-1] by :func:`panels`."""
    return float(np.sum(panels(f, np.asarray(edges, dtype=float))[1]))


def rest(samples) -> float:
    """The integral past the last nonzero of samples of f >= 0 at unit steps,
    f2 / log(f1 / f2) from the last two if f keeps decaying by their ratio;
    inf unless they decay (0 < f2 < f1)."""
    f1, f2 = np.append([0.0, 0.0], np.trim_zeros(np.asarray(samples, dtype=float), "b"))[-2:]
    return f2 / math.log(f1 / f2) if 0.0 < f2 < f1 else math.inf
