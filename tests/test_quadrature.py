"""A quadrature pass is one dot of the integrand's values with folded
weights; it must sum what the cellwise reduction summed."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqint import DivergentIntegralError, quadrature
from choqint.errors import InvalidArgumentError
from choqint.quadrature import (
    DEFAULT_QUADRATURE,
    MAX_CELL_NODES,
    MAX_ROW_NODES,
    QuadratureConfig,
    _gauss_nodes,
    _pass_rows,
    composite_gauss_legendre,
    graded_mesh,
    integrate,
    integrate_rows,
)

EPS = float(np.finfo(float).eps)

#: a finer rule than the default: 48 cells of 24 nodes
FINE_QUADRATURE = QuadratureConfig(subintervals=48, nodes_per_subinterval=24,
                                   refinement_tolerance=1e-14, max_refinements=7)

INTEGRANDS = {
    "sqrt": np.sqrt,
    "damped_power": lambda t: np.exp(-3.0 * t) * t ** 2,
    "oscillating": lambda t: np.cos(5.0 * t) + 2.0,
}


def cellwise_pass(fn, a, b, cfg, cells):
    """The reduction a pass made before the weights were folded: values
    cell by cell, halves * (values @ w), summed over the cells; also the sum
    of the absolute terms, which scales its rounding."""
    mesh = graded_mesh(a, b, cells, cfg.endpoint_grading)
    x, w = _gauss_nodes(cfg.nodes_per_subinterval)
    mids = 0.5 * (mesh[1:] + mesh[:-1])
    halves = 0.5 * (mesh[1:] - mesh[:-1])
    points = np.clip(mids[:, None] + halves[:, None] * x[None, :], min(a, b), max(a, b))
    values = fn(points)
    return float((halves * (values @ w)).sum()), float(np.sum(np.abs(halves[:, None] * values * w)))


@pytest.mark.parametrize("cells", [48, 384, 3072])
@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("cfg", [DEFAULT_QUADRATURE, FINE_QUADRATURE], ids=["default", "fine"])
def test_folded_pass_matches_the_cellwise_reduction(cfg, name, cells):
    fn = INTEGRANDS[name]
    reference, scale = cellwise_pass(fn, 0.0, 8.0, cfg, cells)
    assert abs(composite_gauss_legendre(fn, 0.0, 8.0, cfg, cells) - reference) <= 4 * EPS * scale


def test_integrate_is_the_pass_where_the_doubling_stops():
    # a cubic: the first doubling, 80 cells, changes nothing past rounding
    fn = lambda x: x ** 3 - x  # noqa: E731
    assert integrate(fn, 0.0, 2.0) == composite_gauss_legendre(fn, 0.0, 2.0, DEFAULT_QUADRATURE, 80)


def one_interval_pass(a, b, cells, grading, nodes):
    """The pass over one interval [a, b], in scalar arithmetic: the builder
    every route used before passes were built many intervals at a time."""
    n_left = cells // 2
    mid = 0.5 * (a + b)
    parts = [np.array([a])]
    if n_left:
        sizes = grading ** np.arange(n_left - 1, -1, -1, dtype=float)
        parts.append(a + np.cumsum(sizes) / sizes.sum() * (mid - a))
    sizes = grading ** np.arange(0, cells - n_left, dtype=float)
    parts.append(mid + np.cumsum(sizes) / sizes.sum() * (b - mid))
    mesh = np.concatenate(parts)
    mesh[-1] = b
    x, w = _gauss_nodes(nodes)
    mids = 0.5 * (mesh[1:] + mesh[:-1])
    halves = 0.5 * (mesh[1:] - mesh[:-1])
    points = np.clip((mids[:, None] + halves[:, None] * x[None, :]).ravel(), min(a, b), max(a, b))
    return points, (halves[:, None] * w[None, :]).ravel()


@settings(max_examples=60, deadline=None)
@given(ends=st.lists(st.tuples(st.sampled_from([0.0, 1.0, -1e3, 1e5]),
                               st.floats(-10.0, 10.0), st.floats(1e-9, 1e3)),
                     min_size=1, max_size=5),
       cells=st.integers(1, 200), grading=st.floats(0.01, 1.0), nodes=st.integers(1, 20))
def test_pass_rows_equal_one_interval_passes_bit_for_bit(ends, cells, grading, nodes):
    lo = np.array([origin + shift for origin, shift, _ in ends])
    hi = lo + np.array([width for _, _, width in ends])
    points, weights = _pass_rows(lo, hi, cells, grading, nodes)
    assert points.shape == weights.shape == (lo.size, cells * nodes)
    for i in range(lo.size):
        want_points, want_weights = one_interval_pass(float(lo[i]), float(hi[i]), cells,
                                                      grading, nodes)
        assert np.array_equal(points[i], want_points)
        assert np.array_equal(weights[i], want_weights)


def test_config_caps_the_rule_and_the_first_pass():
    QuadratureConfig(subintervals=MAX_ROW_NODES // MAX_CELL_NODES,
                     nodes_per_subinterval=MAX_CELL_NODES)
    with pytest.raises(InvalidArgumentError, match="nodes_per_subinterval"):
        QuadratureConfig(nodes_per_subinterval=MAX_CELL_NODES + 1)
    with pytest.raises(InvalidArgumentError, match="first pass"):
        QuadratureConfig(subintervals=MAX_ROW_NODES // MAX_CELL_NODES + 1,
                         nodes_per_subinterval=MAX_CELL_NODES)


@pytest.mark.parametrize("tolerance", [0.0, -1e-8, np.inf, np.nan])
def test_config_refuses_a_refinement_tolerance_outside_0_to_inf(tolerance):
    # with inf every stop test passes after one doubling; with nan none does
    with pytest.raises(InvalidArgumentError, match="refinement_tolerance"):
        QuadratureConfig(refinement_tolerance=tolerance)


def test_a_row_above_the_cap_is_refused_before_it_is_built():
    with pytest.raises(DivergentIntegralError, match="exceeds the cap"):
        _pass_rows(0.0, np.array([1.0]), MAX_ROW_NODES // 16 + 1, 0.5, 16)


def row_integrand(scale, shift):
    """A family of integrands, one per row: scale_i sqrt|x - shift_i| + x^2,
    as ``integrate_rows`` takes it and as ``integrate`` takes row i alone."""
    def rows_fn(rows, x):
        return scale[rows] * np.sqrt(np.abs(x - shift[rows])) + x * x

    def one_fn(i):
        return lambda x: scale[i] * np.sqrt(np.abs(x - shift[i])) + x * x

    return rows_fn, one_fn


class TestIntegrateRows:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 3.0),
                                   st.floats(0.1, 4.0), st.floats(-1.0, 1.0)),
                         min_size=1, max_size=6),
           per_row_lo=st.booleans())
    def test_each_row_is_its_integrate_value_bit_for_bit(self, rows, per_row_lo):
        lo = np.array([row[0] for row in rows]) if per_row_lo else rows[0][0]
        hi = np.broadcast_to(lo, len(rows)) + np.array([row[1] for row in rows])
        rows_fn, one_fn = row_integrand(np.array([row[2] for row in rows]),
                                        np.array([row[3] for row in rows]))
        got = integrate_rows(rows_fn, lo, hi, at=hi)
        assert got.shape == hi.shape
        for i in range(len(rows)):
            assert got[i] == integrate(one_fn(i), float(np.broadcast_to(lo, hi.shape)[i]),
                                       float(hi[i])), i

    def test_empty_rows_are_zero_and_never_evaluated(self):
        lo, hi = np.array([0.0, 1.0, -2.0, 3.0]), np.array([0.0, 2.5, -2.0, 4.0])
        seen = []

        def fn(rows, x):
            seen.extend(np.unique(rows).tolist())
            return x * x

        got = integrate_rows(fn, lo, hi, at=hi)
        assert got[0] == 0.0 and got[2] == 0.0
        assert set(seen) == {1, 3}
        assert got[1] == integrate(lambda x: x * x, 1.0, 2.5)
        assert got[3] == integrate(lambda x: x * x, 3.0, 4.0)
        assert not integrate_rows(fn, 1.0, np.array([1.0, 1.0]), at=lo[:2]).any()

    def test_batches_hold_whole_rows(self, monkeypatch):
        # rows of 640 nodes, then 1280: a batch of 8000 nodes holds 12, then 6
        sizes = []

        def fn(rows, x):
            sizes.append(x.size)
            return np.sqrt(x)

        monkeypatch.setattr(quadrature, "BATCH_NODES", 8000)
        hi = np.linspace(0.5, 3.0, 30)
        batched = integrate_rows(fn, 0.0, hi, at=hi)
        assert max(sizes) <= 8000 and max(sizes) % 640 == 0
        monkeypatch.setattr(quadrature, "BATCH_NODES", 10 ** 9)
        assert np.array_equal(integrate_rows(fn, 0.0, hi, at=hi), batched)

    def test_the_first_unconverged_row_is_named(self):
        cfg = QuadratureConfig(max_refinements=0)
        hi = np.array([0.0, 1.0, 2.0])
        with pytest.raises(DivergentIntegralError, match=r"doublings at t = 7\.0$"):
            integrate_rows(lambda rows, x: np.sqrt(x), 0.0, hi, cfg, at=np.array([5.0, 7.0, 9.0]))

    def test_a_row_above_the_cap_raises_its_own_error(self, monkeypatch):
        # the doubled pass, 1280 nodes, is above a cap of 1000
        monkeypatch.setattr(quadrature, "MAX_ROW_NODES", 1000)
        cfg = QuadratureConfig(refinement_tolerance=1e-300)
        with pytest.raises(DivergentIntegralError, match="of 1280 nodes exceeds the cap of 1000"):
            integrate_rows(lambda rows, x: np.abs(x - 0.3), 0.0, np.array([1.0]), cfg,
                           at=np.array([1.0]))


class TestPassesThatOverflow:
    """A pass that is not finite raises at once, with no numpy warning."""

    def test_one_interval(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergentIntegralError, match="pass is not finite$"):
                integrate(lambda x: np.full_like(x, 1e308), 0.0, 10.0)

    def test_the_first_row_that_overflows_is_named(self):
        hi = np.array([1.0, 10.0, 20.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergentIntegralError, match=r"not finite at t = 7\.0$"):
                integrate_rows(lambda rows, x: np.full_like(x, 1e308), 0.0, hi,
                               at=np.array([5.0, 7.0, 9.0]))
