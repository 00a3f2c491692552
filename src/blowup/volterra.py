"""Repeated-integration (Volterra kernel) operator.

:func:`weighted_volterra` maps samples of phi on a grid to samples of

    t  ->  1/(p-1)! * int_0^t (t - tau)^(p-1) * phi(tau) dtau,

the Cauchy formula for p-fold repeated integration.  For p = 1 this is the
running integral.

On each grid cell phi is replaced by its quintic interpolant through a
6-node stencil (the cell's endpoints plus two neighbours on each side,
one-sided at the boundary), or by the cubic through the centred 4 nodes
where the stencil's cells differ in width by more than 2x.  The repeated
integrals of that piecewise polynomial are carried from node to node
exactly: across a cell of width h, the r-fold integral Y_r (r = 1..p) at
the right end is the Taylor shift of the lower orders at the left end plus
a closed-form Beta moment of the cell's interpolant.  That moment is linear
in the stencil samples, with weights that depend on the grid alone (built
from each cell's Lagrange basis), so a call is a gather, a weighted sum and
a cumulative sum per order: O(N * p) on any grid.  The rule is exact for
piecewise-cubic phi on any grid, exact for piecewise-quintic phi where each
stencil's cells are within 2x of each other in width, and O(h^6) for
smooth phi on uniform grids.

The weights of recently used grids are cached by grid content, up to a
fixed memory budget that holds about one Picard grid ladder: a tower applies
the kernel to one grid many times, and towers on the same interval climb
the same ladder.  A cached grid is not checked again.  Results are the same,
bit for bit, whether the weights come from the cache or a fresh build.

:func:`integral_image` writes the library's operator once: the seed
polynomial plus the blockwise Volterra image, for every derivative order,
from one carry per block (orders 1..p come out of one pass).
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, NumericFailureError

__all__ = ["weighted_volterra", "partial_volterra", "integral_image"]

_MAX_ORDER = 12
_WIDTH = 6     # stencil nodes per cell
_RATIO = 2.0   # widest over narrowest cell a 6-node stencil may span


class _Weights(NamedTuple):
    """One grid's weights for kernel orders 1..order and the stencil basis
    they are built from (read-only arrays)."""

    order: int
    idx: np.ndarray     # (w, cells): stencil node indices lo_j + s
    W: np.ndarray       # (order, w, cells): inc_r[j] = sum_s W[r-1, s, j] phi[lo_j + s]
    taylor: np.ndarray  # (order - 1, cells): h_j^s / s!, s = 1..order-1
    e: np.ndarray       # (w - 1, w, cells): e_1..e_{w-1} of each node's other nodes
    denom: np.ndarray   # (w, cells): D_s
    narrow: np.ndarray  # cells on the 4-node fallback stencil
    nbytes: int         # of the six arrays, which the cache's eviction walk reads


# Weights are a function of the grid alone, and a Picard tower applies the
# kernel to one grid 10-20 times, so they are kept by grid content (its bytes,
# hashed at every lookup: a grid array changed in place is a new key), least
# recently used first out, while the entries together stay within
# _CACHE_BYTES; the newest entry is always kept.  An entry is O(order * N),
# 496 bytes a node at order 3 (208 of weights and stencil indices, 288 of the
# stencil basis a higher order is built from), so a whole grid ladder from
# 129 nodes up to the 16385-node cap takes ~16.3 MB at that order, about the
# budget.  Towers on the same grids (the uniform and the graded ladder of
# one T, 129 to 513 nodes: 0.9 MB for a global-construct round) build each
# grid's weights once; a ladder that climbs to the cap evicts its own
# coarsest levels, which it does not read again.  A caller asking for a higher order than a grid's entry holds
# gets that entry with the new orders' rows added.
# An entry is built whole before it is inserted, and
# entries are only ever inserted or popped whole, so callers on other threads
# never see a partial one.  The bookkeeping (a hit's move to the newest end,
# an insertion at that end and its evictions) runs under _LOCK: a hit pops
# its entry and puts it back, and an eviction between the two would miss it,
# leaving the cache over budget.  Entries are built outside the lock.
# Results do not depend on what is cached: an entry for order p holds the
# same rows, bit for bit, as a fresh build for any lower order.
_CACHE_BYTES = 16 << 20
_WEIGHTS: dict = {}
_LOCK = threading.Lock()


def _grid_weights(grid: np.ndarray, p: int) -> _Weights:
    """Build the weights of orders 1..p for a checked grid.

    Cell j (width h_j, x = (t - t_j)/h_j) interpolates phi through its
    stencil nodes xi_0..xi_{w-1}: w = 6 nodes, the cell's ends plus two
    neighbours on each side, one-sided at the boundary (w = len(grid) below
    6).  A cell whose stencil spans cells wider than _RATIO times the
    narrowest of them (the first cells of a graded start, or where a short
    segment meets a long one) takes the centred 4-node stencil instead, in
    the middle slots, with zero weight on the others: a quintic through
    cells of very different widths overshoots.  The Lagrange basis function
    of node s is

        L_s(x) = prod_{k != s} (x - xi_k) / D_s = sum_i (-1)^i e_i x^(v-1-i) / D_s,

    with v the stencil's node count, e_i the elementary symmetric functions
    of the other nodes and D_s = prod_{k != s} (xi_s - xi_k).  The Beta
    moment int_0^1 (1-x)^(r-1) x^d dx / (r-1)! = d!/(d+r)! then gives

        W_r[s, j] = h_j^r / D_s * sum_i (-1)^i e_i (v-1-i)! / (v-1-i+r)!.

    The rows are those of :func:`_raised` from order 0, so the order-r
    weights do not depend on p, nor on whether they were built with the
    entry or added to it later.
    """
    n, h = len(grid), np.diff(grid)
    w = min(_WIDTH, n)
    s0 = (w - 4) // 2  # a fallback cell's 4 nodes fill slots s0..s0+3; the others repeat its ends
    lo = np.clip(np.arange(n - 1) - (w - 1) // 2, 0, n - w)
    idx = lo + np.arange(w)[:, None]
    narrow = np.empty(0, dtype=np.intp)
    if w > 4:
        widest = narrowest = h[: n - w + 1]  # over the w - 1 cells from each lo on
        for s in range(1, w - 1):
            span = h[s : n - w + 1 + s]
            widest, narrowest = np.maximum(widest, span), np.minimum(narrowest, span)
        narrow = np.flatnonzero((widest > _RATIO * narrowest)[lo])
        idx[:, narrow] = np.clip(narrow - 1, 0, n - 4) + np.clip(np.arange(w) - s0, 0, 3)[:, None]
    xi = (grid[idx] - grid[:-1]) / h
    e, denom = _basis(xi)
    if len(narrow):
        mid = slice(s0, s0 + 4)
        e[:, :, narrow], denom[:, narrow] = 0.0, 1.0
        e[:3, mid, narrow], denom[mid, narrow] = _basis(xi[mid, narrow])
    for a in (idx, narrow, e, denom):
        a.setflags(write=False)
    empty = _Weights(0, idx, np.empty((0, w, n - 1)), np.empty((0, n - 1)), e, denom, narrow, 0)
    return _raised(empty, grid, p)


def _basis(xi: np.ndarray) -> tuple:
    """(e, denom) of the Lagrange basis through the nodes xi (v, cells): e[i-1, s]
    is e_i of the nodes other than s, denom[s] is D_s (see :func:`_grid_weights`)."""
    v = len(xi)
    others = xi[[[k for k in range(v) if k != s] for s in range(v)]]  # (s, k != s, cell)
    e, denom = [1.0, others[:, 0]], xi - others[:, 0]
    for m in range(1, v - 1):
        x = others[:, m]
        e = [1.0] + [e[i] + x * e[i - 1] for i in range(1, m + 1)] + [x * e[m]]
        denom = denom * (xi - x)
    return np.array(e[1:]), denom


def _moments(e: np.ndarray, denom: np.ndarray, r: int) -> np.ndarray:
    """W_r / h^r of each slot and cell for the basis (e, denom) of v nodes."""
    v = len(denom)
    acc = np.full(denom.shape, math.factorial(v - 1) / math.factorial(v - 1 + r))
    for i in range(1, v):
        acc += (-1) ** i * (math.factorial(v - 1 - i) / math.factorial(v - 1 - i + r)) * e[i - 1]
    return acc / denom


def _raised(wts: _Weights, grid: np.ndarray, p: int) -> _Weights:
    """``wts`` with the rows of orders wts.order + 1..p added, each computed
    on its own from the kept stencil basis (see :func:`_grid_weights`), with
    the 4-node factorials in a fallback cell's middle slots and zeros in its
    others; the rows it has, its indices and its basis are kept as they are,
    and ``nbytes`` is counted again with the new rows."""
    h = np.diff(grid)
    w, narrow = len(wts.idx), wts.narrow
    mid = slice((w - 4) // 2, (w - 4) // 2 + 4)
    W = np.empty((p, w, len(h)))
    W[: wts.order] = wts.W
    for r in range(wts.order + 1, p + 1):
        acc = W[r - 1]
        acc[...] = _moments(wts.e, wts.denom, r)
        if len(narrow):
            acc[:, narrow] = 0.0
            acc[mid, narrow] = _moments(wts.e[:3, mid, narrow], wts.denom[mid, narrow], r)
        acc *= h ** r
    taylor = np.array([h ** s / math.factorial(s) for s in range(1, p)]).reshape(p - 1, len(h))
    for a in (W, taylor):
        a.setflags(write=False)
    nbytes = sum(a.nbytes for a in (wts.idx, W, taylor, wts.e, wts.denom, narrow))
    return wts._replace(order=p, W=W, taylor=taylor, nbytes=nbytes)


def _carry(phi: np.ndarray, p: int, wts: _Weights) -> np.ndarray:
    """Y[r-1, i] = 1/(r-1)! int_{grid[0]}^{grid[i]} (grid[i]-tau)^(r-1) phi dtau, r = 1..p.

    Across cell j (width h), Y_r(t_{j+1}) = sum_{s<r} Y_{r-s}(t_j) h^s/s!
    + inc_r[j], the last term being the weighted stencil sum of
    :func:`_grid_weights`.
    """
    inc = np.einsum("rsj,sj->rj", wts.W[:p], phi[wts.idx])  # every order in one pass
    Y = np.zeros((p, len(phi)))
    for r in range(p):
        for s in range(1, r + 1):
            inc[r] += Y[r - s, :-1] * wts.taylor[s - 1]
        inc[r].cumsum(out=Y[r, 1:])
    return Y


def _checked_grid(grid):
    """(grid, its cache key: the grid's bytes) after the grid checks: 1-D
    with at least 2 nodes, finite and strictly increasing (not checked again
    once its weights are cached)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise InvalidParameterError("grid must be 1-D with at least 2 nodes")
    key = grid.tobytes()
    if key not in _WEIGHTS:
        if not np.all(np.isfinite(grid)):
            raise InvalidParameterError("grid must be finite")
        if np.any(np.diff(grid) <= 0):
            raise InvalidParameterError("grid must be strictly increasing")
    return grid, key


def _checked(phi, p: int, grid):
    """(phi, p, grid, weights for orders >= p) after the checks every kernel
    call makes: the grid's (:func:`_checked_grid`), an integer order in
    [1, 12], and finite phi sampled on the grid (or a callable)."""
    grid, key = _checked_grid(grid)
    if not (isinstance(p, (int, np.integer)) and 1 <= p <= _MAX_ORDER):
        raise InvalidParameterError(f"kernel order must be an integer in [1, {_MAX_ORDER}]")
    if callable(phi):
        phi = np.array([float(phi(t)) for t in grid])
    phi = np.asarray(phi, dtype=float)
    if phi.shape != grid.shape:
        raise InvalidParameterError("phi must be sampled on the grid")
    if not np.isfinite(phi).all():
        raise NumericFailureError("non-finite phi samples")
    p = int(p)
    with _LOCK:
        entry = _WEIGHTS.pop(key, None)
        if entry is not None and entry.order >= p:
            _WEIGHTS[key] = entry  # most recently used last
            return phi, p, grid, entry
    # a grid cached at a lower order keeps its rows and gains the new ones
    entry = _grid_weights(grid, p) if entry is None else _raised(entry, grid, p)
    with _LOCK:
        _WEIGHTS.pop(key, None)  # another thread's entry for this grid: ours is the newest
        _WEIGHTS[key] = entry
        kept = 0
        for k, e in reversed(list(_WEIGHTS.items())):  # newest first
            kept += e.nbytes
            if kept > _CACHE_BYTES and e is not entry:
                _WEIGHTS.pop(k, None)
    return phi, p, grid, entry


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
    phi, p, _, wts = _checked(phi, p, grid)
    return _carry(phi, p, wts)[p - 1]


def _extend(Y: np.ndarray, tau_grid: np.ndarray, t_targets: np.ndarray) -> list:
    """(r-1)! times row r-1 of Y Taylor-extended from the last node t_k <= t
    to each target t, r = 1..len(Y): exact, since y^(r) = 0 past t_k (targets
    before the span extend from the first node, where Y = 0).  A target within
    rounding of a node counts as that node; the slack stays below the
    narrowest cell, which is far below 1e-12 near 0 on a graded grid."""
    tiny = min(1e-12 * max(1.0, float(np.max(np.abs(tau_grid)))), 1e-3 * float(np.min(np.diff(tau_grid))))
    k = np.maximum(np.searchsorted(tau_grid, t_targets + tiny, side="right") - 1, 0)
    dt, Yk = t_targets - tau_grid[k], Y[:, k]
    powers = [dt ** s / math.factorial(s) for s in range(len(Y))]
    return [sum(Yk[r - 1 - s] * powers[s] for s in range(r)) * math.factorial(r - 1)
            for r in range(1, len(Y) + 1)]


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
    phi, p, tau_grid, wts = _checked(phi, p, tau_grid)
    return _extend(_carry(phi, p, wts), tau_grid, np.asarray(t_targets, dtype=float))[-1]


def integral_image(a, blocks, grid) -> np.ndarray:
    """Seed polynomial plus blockwise repeated integral, every derivative order.

    ``blocks`` holds (i0, i1, f) triples, f sampled on grid[i0 : i1 + 1];
    each block is integrated on its own, so the quadrature never straddles a
    jump between blocks.  With p = len(a), column i of the (len(grid), p)
    result is

        sum_j a_{i+j} t^j / j!  +  1/(p-i-1)! int_0^t (t-tau)^(p-i-1) f dtau,

    the i-th derivative of the y with y^(p) = f and y^(j)(0) = a_j.  No
    blocks gives the seed polynomial alone.  One carry per block gives every
    column, each the same bit for bit as a carry of its order alone.  The
    grid is checked as by the kernel before the seed is built on it, and each
    block's slice is checked by its own kernel call, a full-span one too.
    """
    grid, _ = _checked_grid(grid)
    p = len(a)
    out = np.zeros((len(grid), p))
    for i in range(p):
        for j, aj in enumerate(a[i:]):
            out[:, i] += aj * grid ** j / math.factorial(j)
    for i0, i1, f in blocks:
        f, _, sub, wts = _checked(f, p, grid[i0 : i1 + 1])
        Y = _carry(f, p, wts)
        if len(sub) < len(grid):  # a sub-block: extend its rows to every node
            Y = [e / math.factorial(r) for r, e in enumerate(_extend(Y, sub, grid))]
        out += np.transpose(Y)[:, ::-1]
    return out
