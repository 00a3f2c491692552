"""The library's one quadrature rule, for the majorant's F (picard), the
dichotomy integral I(h, n) (classify) and the integral of q (pipeline)."""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericFailureError

QUAD_TOL = 1e-12      # relative error allowed on each starting panel


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
    QUAD_TOL of |its first value|, and the panels' integrals of f (vectorized)."""
    (x20, w20), (x11, w11) = gauss_rules()
    x, budget = np.concatenate([x20, x11]), None
    for _ in range(64):
        mid, half = (edges[1:] + edges[:-1]) / 2.0, np.diff(edges) / 2.0
        fv = f(mid[:, None] + half[:, None] * x)
        val = half * (fv[:, : len(w20)] @ w20)
        budget = QUAD_TOL * np.abs(val) if budget is None else budget
        bad = np.abs(val - half * (fv[:, len(w20) :] @ w11)) > budget
        if not bad.any():
            return edges, val
        edges = np.insert(edges, np.flatnonzero(bad) + 1, mid[bad])
        budget = np.repeat(budget, np.where(bad, 2, 1))
    raise NumericFailureError(f"integral not resolved to {QUAD_TOL} on [{edges[0]:.17g}, {edges[-1]:.17g}]")


def integral(f, edges) -> float:
    """The integral of f from edges[0] to edges[-1] by :func:`panels`."""
    return float(np.sum(panels(f, np.asarray(edges, dtype=float))[1]))
