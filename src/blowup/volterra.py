"""Repeated-integration (Volterra kernel) operator.

:func:`weighted_volterra` maps samples of phi on a grid to samples of

    t  ->  1/(p-1)! * int_0^t (t - tau)^(p-1) * phi(tau) dtau,

the Cauchy formula for p-fold repeated integration.  For p = 1 this is the
running integral.

On each grid cell phi is replaced by its cubic interpolant through a 4-node
stencil (the cell's endpoints plus one neighbour on each side, one-sided at
the boundary).  The repeated integrals of that piecewise cubic are carried
from node to node exactly: across a cell of width h, the r-fold integral
Y_r (r = 1..p) at the right end is the Taylor shift of the lower orders at
the left end plus h^r times a closed-form Beta moment of the cell's cubic.
Each order is one cumulative sum, so the cost is O(N * p) on any grid.  The rule
is exact for piecewise-cubic phi and O(h^4) for smooth phi, on uniform or
non-uniform grids.

:func:`integral_image` writes the library's operator once: the seed
polynomial plus the blockwise Volterra image, for every derivative order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError, NumericFailureError

__all__ = ["weighted_volterra", "partial_volterra", "integral_image"]

_MAX_ORDER = 12


def _stencil_indices(n_nodes: int) -> np.ndarray:
    """4-node stencil (clipped window) for each of the n_nodes-1 cells."""
    width = min(4, n_nodes)
    j = np.arange(n_nodes - 1)
    lo = np.clip(j - 1, 0, n_nodes - width)
    return lo[:, None] + np.arange(width)[None, :]


def _cell_cubics(phi: np.ndarray, grid: np.ndarray, h: np.ndarray) -> np.ndarray:
    """c[j, d]: cell j's stencil interpolant is sum_d c[j, d] x^d, x = (t - t_j)/h_j."""
    idx = _stencil_indices(len(grid))
    xi = (grid[idx] - grid[:-1, None]) / h[:, None]  # (cells, w)
    w = idx.shape[1]
    dd = phi[idx]  # Newton divided differences, built in place
    for lvl in range(1, w):
        dd[:, lvl:] = (dd[:, lvl:] - dd[:, lvl - 1 : -1]) / (xi[:, lvl:] - xi[:, :-lvl])
    # expand the Newton form to monomials, Horner-style from the top
    c = np.zeros_like(dd)
    c[:, 0] = dd[:, -1]
    for q in range(w - 2, -1, -1):
        shifted = np.zeros_like(c)
        shifted[:, 1:] = c[:, :-1]
        c = shifted - xi[:, q, None] * c
        c[:, 0] += dd[:, q]
    return c


def _carry(phi: np.ndarray, p: int, grid: np.ndarray) -> np.ndarray:
    """Y[r-1, i] = 1/(r-1)! int_{grid[0]}^{grid[i]} (grid[i]-tau)^(r-1) phi dtau, r = 1..p.

    Across cell j (width h), Y_r(t_{j+1}) = sum_{s<r} Y_{r-s}(t_j) h^s/s!
    + h^r sum_d c_d d!/(d+r)!, the last term being the Beta integral
    int_0^1 (1-x)^(r-1) x^d dx / (r-1)! of the cell's cubic.
    """
    h = np.diff(grid)
    c = _cell_cubics(phi, grid, h)
    d = np.arange(c.shape[1])
    Y = np.zeros((p, len(grid)))
    for r in range(1, p + 1):
        moments = np.array([math.factorial(k) / math.factorial(k + r) for k in d])
        inc = h ** r * (c @ moments)
        for s in range(1, r):
            inc += Y[r - s - 1, :-1] * (h ** s / math.factorial(s))
        Y[r - 1, 1:] = np.cumsum(inc)
    return Y


def _checked(phi, p: int, grid):
    """(phi, p, grid) as arrays, after the checks every kernel call makes: a
    1-D strictly increasing grid of at least 2 nodes, an integer order in
    [1, 12], and finite phi sampled on the grid (or a callable)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise InvalidParameterError("grid must be 1-D with at least 2 nodes")
    if np.any(np.diff(grid) <= 0):
        raise InvalidParameterError("grid must be strictly increasing")
    if not (isinstance(p, (int, np.integer)) and 1 <= p <= _MAX_ORDER):
        raise InvalidParameterError(f"kernel order must be an integer in [1, {_MAX_ORDER}]")
    if callable(phi):
        phi = np.array([float(phi(t)) for t in grid])
    phi = np.asarray(phi, dtype=float)
    if phi.shape != grid.shape:
        raise InvalidParameterError("phi must be sampled on the grid")
    if not np.all(np.isfinite(phi)):
        raise NumericFailureError("non-finite phi samples")
    return phi, int(p), grid


def weighted_volterra(phi, p: int, grid) -> np.ndarray:
    """Sampled p-fold repeated integral of phi over the grid.

    Args:
        phi: samples of the integrand at the grid nodes (array-like), or a
            callable evaluated on the grid.
        p: kernel order (positive integer); p = 1 is the running integral.
        grid: strictly increasing abscissas starting the integration at
            grid[0] (taken as the origin).

    Returns:
        Array of the same length as the grid; entry i is the integral up to
        grid[i] (entry 0 is 0).
    """
    phi, p, grid = _checked(phi, p, grid)
    return _carry(phi, p, grid)[p - 1]


def partial_volterra(phi, p: int, tau_grid, t_targets) -> np.ndarray:
    """Kernel integrals over one sampled span, for arbitrary targets.

    Returns, for each target t,

        int over [tau_grid[0], t_k] of (t - tau)^(p-1) phi(tau) dtau

    (without the 1/(p-1)! factor), where t_k is the last node <= t: cells
    right of the target are dropped, a target past the span end integrates
    the whole span, and a target before it gets 0.  This is the building
    block for integrands that are smooth only blockwise: integrate each
    block separately and sum.  ``phi`` and ``tau_grid`` are checked as in
    :func:`weighted_volterra`.
    """
    phi, p, tau_grid = _checked(phi, p, tau_grid)
    t_targets = np.asarray(t_targets, dtype=float)
    Y = _carry(phi, p, tau_grid)
    # Taylor-extend from the last node t_k <= t: exact, since y^(p) = 0 past
    # t_k.  Targets before the span extend from the first node, where Y = 0.
    tiny = 1e-12 * max(1.0, float(np.max(np.abs(tau_grid))))
    k = np.maximum(np.searchsorted(tau_grid, t_targets + tiny, side="right") - 1, 0)
    dt = t_targets - tau_grid[k]
    out = np.zeros(len(t_targets))
    for s in range(p):
        out += Y[p - 1 - s, k] * (dt ** s / math.factorial(s))
    return out * math.factorial(p - 1)


def integral_image(a, blocks, grid) -> np.ndarray:
    """Seed polynomial plus blockwise repeated integral, every derivative order.

    ``blocks`` holds (i0, i1, f) triples, f sampled on grid[i0 : i1 + 1];
    each block is integrated on its own, so the quadrature never straddles a
    jump between blocks.  With p = len(a), column i of the (len(grid), p)
    result is

        sum_j a_{i+j} t^j / j!  +  1/(p-i-1)! int_0^t (t-tau)^(p-i-1) f dtau,

    the i-th derivative of the y with y^(p) = f and y^(j)(0) = a_j.  No
    blocks gives the seed polynomial alone.
    """
    grid = np.asarray(grid, dtype=float)
    p = len(a)
    out = np.zeros((len(grid), p))
    for i in range(p):
        for j, aj in enumerate(a[i:]):
            out[:, i] += aj * grid ** j / math.factorial(j)
        order = p - i
        for i0, i1, f in blocks:
            if i0 == 0 and i1 == len(grid) - 1:
                out[:, i] += weighted_volterra(f, order, grid)
            else:
                sub = grid[i0 : i1 + 1]
                out[:, i] += partial_volterra(f, order, sub, grid) / math.factorial(order - 1)
    return out
