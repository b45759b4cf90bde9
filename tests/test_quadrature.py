"""A quadrature pass is one dot of the integrand's values with folded
weights; it must sum what the cellwise reduction summed."""

import numpy as np
import pytest

from choqint.laplace import TRANSFORM_QUADRATURE
from choqint.quadrature import (
    DEFAULT_QUADRATURE,
    _gauss_nodes,
    _pass_nodes,
    composite_gauss_legendre,
    graded_mesh,
)

EPS = float(np.finfo(float).eps)

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
@pytest.mark.parametrize("cfg", [DEFAULT_QUADRATURE, TRANSFORM_QUADRATURE],
                         ids=["default", "transform"])
def test_folded_pass_matches_the_cellwise_reduction(cfg, name, cells):
    fn = INTEGRANDS[name]
    reference, scale = cellwise_pass(fn, 0.0, 8.0, cfg, cells)
    assert abs(composite_gauss_legendre(fn, 0.0, 8.0, cfg, cells) - reference) <= 4 * EPS * scale


def test_pass_nodes_are_flat_and_read_only():
    cfg = TRANSFORM_QUADRATURE
    points, weights = _pass_nodes(0.0, 8.0, 96, cfg.endpoint_grading, cfg.nodes_per_subinterval)
    assert points.shape == weights.shape == (96 * cfg.nodes_per_subinterval,)
    # the folded weights of a pass sum to the length of its interval
    assert weights.sum() == pytest.approx(8.0, rel=1e-14)
    for array in (points, weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
