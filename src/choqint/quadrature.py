"""Composite Gauss-Legendre quadrature on endpoint-graded meshes.

The integrands this package produces have algebraic behavior at interval
endpoints (square-root integrands, kernels vanishing at the upper limit),
so the mesh is geometrically graded toward both endpoints and the whole
rule is refined by mesh doubling until the estimate stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DivergentIntegralError, InvalidArgumentError

__all__ = ["QuadratureConfig", "graded_mesh", "composite_gauss_legendre", "integrate",
           "integrate_rows", "convolve"]

#: the most Gauss-Legendre nodes per cell (a finer mesh is the cheaper way
#: to more accuracy), and the most nodes of one row: a pass over one
#: interval, or one span of a convolution
MAX_CELL_NODES = 128
MAX_ROW_NODES = 2 ** 22

#: most nodes a many-interval integral evaluates at once: batches small
#: enough that the expression temporaries stay in cache and peak memory stays flat
BATCH_NODES = 8192


@dataclass(frozen=True)
class QuadratureConfig:
    subintervals: int = 40
    nodes_per_subinterval: int = 16
    refinement_tolerance: float = 1e-8
    max_refinements: int = 6
    endpoint_grading: float = 0.5

    def __post_init__(self):
        if self.subintervals < 1 or self.nodes_per_subinterval < 1:
            raise InvalidArgumentError("subintervals and nodes_per_subinterval must be positive")
        if self.nodes_per_subinterval > MAX_CELL_NODES:
            raise InvalidArgumentError(f"nodes_per_subinterval must be at most {MAX_CELL_NODES}")
        if self.subintervals * self.nodes_per_subinterval > MAX_ROW_NODES:
            raise InvalidArgumentError("the first pass, subintervals * nodes_per_subinterval, "
                                       f"must be at most {MAX_ROW_NODES} nodes")
        if not 0.0 < self.refinement_tolerance < np.inf:
            raise InvalidArgumentError("refinement_tolerance must be positive and finite")
        if self.max_refinements < 0:
            raise InvalidArgumentError("max_refinements must be nonnegative")
        if not 0.0 < self.endpoint_grading <= 1.0:
            raise InvalidArgumentError("endpoint_grading must lie in (0, 1]")


DEFAULT_QUADRATURE = QuadratureConfig()


@lru_cache(maxsize=16)
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def graded_mesh(a, b, n: int, grading: float) -> np.ndarray:
    """Break [a, b] into n cells whose sizes shrink geometrically toward
    both endpoints (ratio = grading); grading = 1 gives a uniform mesh.
    Given arrays of ends, row i is the mesh of [a_i, b_i]."""
    a, b = (np.asarray(end, dtype=float)[..., None] for end in np.broadcast_arrays(a, b))
    n_left = n // 2
    n_right = n - n_left
    # halves first: a + b overflows near the top of the double range
    mid = 0.5 * a + 0.5 * b
    parts = [a]
    if n_left:
        sizes = grading ** np.arange(n_left - 1, -1, -1, dtype=float)
        parts.append(a + np.cumsum(sizes) / sizes.sum() * (mid - a))
    if n_right:
        sizes = grading ** np.arange(0, n_right, dtype=float)
        parts.append(mid + np.cumsum(sizes) / sizes.sum() * (b - mid))
    mesh = np.concatenate(parts, axis=-1)
    mesh[..., -1] = b[..., 0]
    return mesh


def _require_row(nodes: int) -> None:
    """A row of more than MAX_ROW_NODES nodes is refused before it is built."""
    if nodes > MAX_ROW_NODES:
        raise DivergentIntegralError(
            f"a quadrature row of {nodes} nodes exceeds the cap of {MAX_ROW_NODES}")


def _batched(fn, out: np.ndarray, cost: int = 1, nodes: int | None = None) -> np.ndarray:
    """out[part] = fn(part) for consecutive slices ``part`` of ``out``'s
    rows, each of at most ``nodes`` (BATCH_NODES by default) nodes, where a
    row costs ``cost`` nodes (a row that costs more goes alone)."""
    step = max(1, (BATCH_NODES if nodes is None else nodes) // cost)
    for start in range(0, len(out), step):
        part = slice(start, start + step)
        out[part] = fn(part)
    return out


def _dots(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The pass of each row of ``values``, its dot with its row of weights:
    a stack of (1 x n) @ (n x 1) products, each the bits of ``row @ w``,
    where a single matrix-vector product would sum in another order.  A sum
    that overflows is left to the finite check of the doubling loop."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (values[:, None, :] @ weights[..., None])[:, 0, 0]


def _cell_nodes(lo: np.ndarray, hi: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes of every cell [lo, hi] along a new last axis, and
    their folded weights (cell half-width times Gauss weight)."""
    x, w = _gauss_nodes(nodes)
    halves = 0.5 * (hi - lo)
    # the midpoint as in graded_mesh, so that hi + lo cannot overflow
    return (0.5 * hi + 0.5 * lo)[..., None] + halves[..., None] * x, halves[..., None] * w


def _pass_rows(lo, hi: np.ndarray, cells: int, grading: float,
               nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of one pass over each [lo, hi_i] (lo a scalar or like hi), row i
    cell by cell, and folded weights: a row's pass is one dot, and
    elementwise arithmetic keeps rows apart."""
    _require_row(cells * nodes)
    mesh = graded_mesh(lo, hi, cells, grading)
    points, weights = _cell_nodes(mesh[:, :-1], mesh[:, 1:], nodes)
    points = points.reshape(mesh.shape[0], -1)
    # rounding in tiny graded cells can push a node an ulp past an endpoint,
    # which matters for integrands defined only inside [lo, hi]
    np.clip(points, np.minimum(lo, hi)[:, None], np.maximum(lo, hi)[:, None], out=points)
    return points, weights.reshape(points.shape)


def composite_gauss_legendre(fn: Callable, a: float, b: float, cfg: QuadratureConfig,
                             subintervals: int) -> float:
    """One pass on a mesh of ``subintervals`` cells; ``fn`` must map an
    ndarray of points to values."""
    points, weights = _pass_rows(a, np.array([b]), subintervals, cfg.endpoint_grading,
                                 cfg.nodes_per_subinterval)
    return float(_dots(np.asarray(fn(points[0]), dtype=float)[None], weights)[0])


def _require_finite(values: np.ndarray, pending: np.ndarray,
                    where: Callable[[int], str]) -> np.ndarray:
    """``values``, the pass of the rows ``pending``, if every one is finite;
    checked before any arithmetic, where inf - inf would warn."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DivergentIntegralError(
            f"a quadrature pass is not finite{where(int(pending[bad[0]]))}")
    return values


def _doubling(pass_of: Callable[[np.ndarray, int], np.ndarray], size: int,
              cfg: QuadratureConfig, where: Callable[[int], str]) -> np.ndarray:
    """The mesh-doubling loop of ``size`` rows, where ``pass_of(pending,
    cells)`` is the pass of the rows ``pending`` on meshes of ``cells``
    cells.  A row stops at the first doubling that changes it by at most
    refinement_tolerance * (1 + |value|), and its value is that pass.
    The first pass that is not finite, or the first row still pending after
    max_refinements doublings, raises, named by ``where(row)``."""
    cells, pending, out = cfg.subintervals, np.arange(size), np.empty(size)
    if not size:
        return out
    prev = _require_finite(pass_of(pending, cells), pending, where)
    for _ in range(cfg.max_refinements):
        cells *= 2
        cur = _require_finite(pass_of(pending, cells), pending, where)
        done = np.abs(cur - prev) <= cfg.refinement_tolerance * (1.0 + np.abs(cur))
        out[pending[done]] = cur[done]
        pending, prev = pending[~done], cur[~done]
        if not pending.size:
            return out
    raise DivergentIntegralError(f"quadrature did not stabilize after {cfg.max_refinements} "
                                 f"mesh doublings{where(int(pending[0]))}")


def integrate(fn: Callable, a: float, b: float,
              cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integrate ``fn`` over [a, b] with mesh-doubling refinement: the one
    row of :func:`integrate_rows`, whose failures it raises unnamed."""
    return float(integrate_rows(lambda rows, x: fn(x), a, np.array([float(b)]), cfg)[0])


def integrate_rows(fn: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi: np.ndarray,
                   cfg: QuadratureConfig = DEFAULT_QUADRATURE, *,
                   at: np.ndarray | None = None) -> np.ndarray:
    """int_{lo_i}^{hi_i} fn(i, x) dx for every row i (0 where lo_i = hi_i; lo
    a scalar or like hi), where ``fn(rows, x)`` gets each node's row.  Each
    row has the bits of its integral alone: its nodes, a vector dot and the
    stop rule of ``_doubling``.  A pass sweeps batches of whole rows of at
    most BATCH_NODES nodes (a larger row goes alone, evaluated BATCH_NODES
    at a time).  The first row that does not converge, or the first whose
    pass is not finite, raises, named by ``at[i]`` where given."""
    lo, per_cell = np.broadcast_to(lo, hi.shape), cfg.nodes_per_subinterval

    def rows_pass(pending: np.ndarray, cells: int) -> np.ndarray:
        per_row = cells * per_cell

        def rows(part: slice) -> np.ndarray:
            ids = pending[part]
            nodes, weights = _pass_rows(lo[ids], hi[ids], cells, cfg.endpoint_grading, per_cell)
            owners, flat = np.repeat(ids, per_row), nodes.reshape(-1)
            # each slice's values overwrite the nodes they came from; an
            # integrand that overflows is left to the finite check
            with np.errstate(over="ignore", invalid="ignore"):
                _batched(lambda s: fn(owners[s], flat[s]), flat)
            return _dots(nodes, weights)

        return _batched(rows, np.empty(pending.size), cost=per_row)

    out = np.zeros(hi.shape)
    nonempty = np.flatnonzero(hi != lo)
    out[nonempty] = _doubling(lambda pending, cells: rows_pass(nonempty[pending], cells),
                              nonempty.size, cfg,
                              lambda i: "" if at is None else f" at t = {float(at[nonempty[i]])!r}")
    return out


def convolve(kernel, factor, spans: np.ndarray, knots: np.ndarray, nodes: int) -> np.ndarray:
    """int_0^u kernel(w) factor(u - w) dw at every offset u of ``spans``,
    where ``factor`` is only piecewise smooth with the given knots (offsets
    in [0, u]): Gauss-Legendre cellwise, never across a knot.  The cells of
    u are cut at 0, u and u - k for the knots k, and the nodes of every
    span go through ``kernel`` and ``factor`` together, BATCH_NODES
    nodes at a time."""
    # a span has at most one cell more than there are knots
    cost = (knots.size + 1) * nodes
    _require_row(cost)

    def spans_pass(part: slice) -> np.ndarray:
        us = spans[part][:, None]
        cuts = np.sort(np.concatenate(
            (np.zeros_like(us), us, us - np.clip(knots, 0.0, us)), axis=1), axis=1)
        lo, hi = cuts[:, :-1], cuts[:, 1:]
        # equal cuts leave empty cells: skipping them keeps nodes off the
        # cuts, where a kernel singular at w = 0 would give 0 * inf
        cells = hi > lo
        ws, weights = _cell_nodes(lo[cells], hi[cells], nodes)
        owners = np.repeat(np.nonzero(cells)[0], nodes)
        ws = ws.ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            terms = (np.asarray(kernel(ws), dtype=float)
                     * np.asarray(factor(us[owners, 0] - ws), dtype=float) * weights.ravel())
        return np.bincount(owners, weights=terms, minlength=us.shape[0])

    return _batched(spans_pass, np.empty(spans.size), cost=cost)
