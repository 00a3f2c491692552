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
the left end plus a closed-form Beta moment of the cell's cubic.  That
moment is linear in the four stencil samples, with weights that depend on
the grid alone (built from each cell's Lagrange basis), so a call is a
gather, a weighted sum and a cumulative sum per order: O(N * p) on any
grid.  The rule is exact for piecewise-cubic phi and O(h^4) for smooth phi,
on uniform or non-uniform grids.

The weights of the last few grids are cached by grid content; a Picard
tower applies the kernel to one grid many times.  Results are the same,
bit for bit, whether the weights come from the cache or a fresh build.

:func:`integral_image` writes the library's operator once: the seed
polynomial plus the blockwise Volterra image, for every derivative order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, NumericFailureError

__all__ = ["weighted_volterra", "partial_volterra", "integral_image"]

_MAX_ORDER = 12


class _Weights(NamedTuple):
    """One grid's weights for kernel orders 1..order (read-only arrays)."""

    order: int
    idx: np.ndarray     # (w, cells): stencil node indices lo_j + s
    W: np.ndarray       # (order, w, cells): inc_r[j] = sum_s W[r-1, s, j] phi[lo_j + s]
    taylor: np.ndarray  # (order - 1, cells): h_j^s / s!, s = 1..order-1


# Weights are a function of the grid alone, and a Picard tower applies the
# kernel to one grid 10-20 times, so they are kept for the last _SLOTS grids,
# keyed by content (a grid array changed in place is a new key).  Four slots,
# because the blocks of a piecewise coefficient are separate sub-grids that
# alternate on every iteration.  An entry is built whole before it is
# inserted, and entries are only ever inserted or popped whole, so callers on
# other threads never see a partial one.  Results do not depend on what is
# cached: an entry for order p holds the same arrays, bit for bit, as a
# fresh build for any lower order.
_SLOTS = 4
_WEIGHTS: dict = {}


def _grid_weights(grid: np.ndarray, p: int) -> _Weights:
    """Build the weights of orders 1..p for a checked grid.

    Cell j (width h_j, x = (t - t_j)/h_j) interpolates phi through its
    stencil nodes xi_0..xi_{w-1}: w = 4 nodes, the cell's ends plus one
    neighbour on each side, one-sided at the boundary (w = len(grid) below 4).
    The Lagrange basis function of node s is

        L_s(x) = prod_{k != s} (x - xi_k) / D_s = sum_i (-1)^i e_i x^(w-1-i) / D_s,

    with e_i the elementary symmetric functions of the other nodes and
    D_s = prod_{k != s} (xi_s - xi_k).  The Beta moment
    int_0^1 (1-x)^(r-1) x^d dx / (r-1)! = d!/(d+r)! then gives

        W_r[s, j] = h_j^r / D_s * sum_i (-1)^i e_i (w-1-i)! / (w-1-i+r)!.

    Each order is computed on its own, so the order-r weights do not depend
    on p.
    """
    n = len(grid)
    w = min(4, n)
    lo = np.clip(np.arange(n - 1) - 1, 0, n - w)
    idx = lo + np.arange(w)[:, None]
    h = np.diff(grid)
    xi = (grid[idx] - grid[:-1]) / h
    others = xi[[[k for k in range(w) if k != s] for s in range(w)]]  # (s, k != s, cell)
    e, denom = [1.0, others[:, 0]], xi - others[:, 0]
    for m in range(1, w - 1):
        x = others[:, m]
        e = [1.0] + [e[i] + x * e[i - 1] for i in range(1, m + 1)] + [x * e[m]]
        denom = denom * (xi - x)
    W = np.empty((p, w, n - 1))
    for r in range(1, p + 1):
        acc = W[r - 1]
        acc[...] = math.factorial(w - 1) / math.factorial(w - 1 + r)
        for i in range(1, w):
            acc += (-1) ** i * (math.factorial(w - 1 - i) / math.factorial(w - 1 - i + r)) * e[i]
        acc /= denom
        acc *= h ** r
    taylor = np.array([h ** s / math.factorial(s) for s in range(1, p)]).reshape(p - 1, n - 1)
    for a in (idx, W, taylor):
        a.setflags(write=False)
    return _Weights(p, idx, W, taylor)


def _weights(grid: np.ndarray, p: int) -> _Weights:
    """The grid's weights for orders up to at least p, from the cache or built."""
    key = grid.tobytes()
    entry = _WEIGHTS.pop(key, None)
    if entry is None or entry.order < p:
        entry = _grid_weights(grid, p)
    _WEIGHTS[key] = entry  # most recently used last
    for stale in list(_WEIGHTS)[:-_SLOTS]:
        _WEIGHTS.pop(stale, None)
    return entry


def _carry(phi: np.ndarray, p: int, grid: np.ndarray) -> np.ndarray:
    """Y[r-1, i] = 1/(r-1)! int_{grid[0]}^{grid[i]} (grid[i]-tau)^(r-1) phi dtau, r = 1..p.

    Across cell j (width h), Y_r(t_{j+1}) = sum_{s<r} Y_{r-s}(t_j) h^s/s!
    + inc_r[j], the last term being the weighted stencil sum of
    :func:`_grid_weights`.
    """
    wts = _weights(grid, p)
    stencil = phi[wts.idx]
    Y = np.zeros((p, len(grid)))
    for r in range(1, p + 1):
        inc = np.einsum("sj,sj->j", wts.W[r - 1], stencil)
        for s in range(1, r):
            inc += Y[r - s - 1, :-1] * wts.taylor[s - 1]
        np.cumsum(inc, out=Y[r - 1, 1:])
    return Y


def _checked(phi, p: int, grid):
    """(phi, p, grid) as arrays, after the checks every kernel call makes: a
    1-D finite strictly increasing grid of at least 2 nodes, an integer order in
    [1, 12], and finite phi sampled on the grid (or a callable)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise InvalidParameterError("grid must be 1-D with at least 2 nodes")
    if not np.all(np.isfinite(grid)):
        raise InvalidParameterError("grid must be finite")
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
