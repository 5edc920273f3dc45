"""Adaptive Gauss-Kronrod quadrature: the batched 7-15 rule and the bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from zetaprod import _quad
from zetaprod._quad import integrate
from zetaprod.errors import ConvergenceError, DomainError

EPS = np.finfo(float).eps
#: Nodes one integrand call may take: 273 panels of 15 nodes.
MAX_NODES = 4095


def _wave(x):
    return np.exp(3j * x) / (1.0 + 0.01 * x * x)


def _counted(f):
    """Wrap f so that it records the number of nodes of each call."""
    sizes = []

    def wrapper(x):
        sizes.append(np.size(x))
        return f(x)

    wrapper.sizes = sizes
    return wrapper


def _edges(panels):
    # unequal widths, so that a panel shifted across a call boundary moves the sums
    return [0.0, *np.cumsum(1.0 + 0.5 * (np.arange(panels) % 3)).tolist()]


def _reference(f, pts):
    """The 7-15 pair one panel at a time, reduced with np.dot, and each
    panel's sum of |weight * value|, the scale of its rounding error."""
    vals, errs, scales = [], [], []
    for a, b in zip(pts, pts[1:]):
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        y = np.asarray(f(c + h * _quad._XK), dtype=np.complex128)
        i15 = h * np.dot(_quad._WK, y)
        vals.append(i15)
        errs.append(abs(i15 - h * np.dot(_quad._WG, y)))
        scales.append(h * np.dot(_quad._WK + _quad._WG, np.abs(y)))
    return vals, errs, scales


@pytest.mark.parametrize("panels", [1, 272, 273, 274, 547])
def test_panels_match_panel_by_panel_reference(panels):
    pts = _edges(panels)
    f = _counted(_wave)
    vals, errs = _quad._panels(f, np.array(pts[:-1]), np.array(pts[1:]))
    assert len(vals) == len(errs) == panels
    for v, e, rv, re, scale in zip(vals, errs, *_reference(_wave, pts)):
        assert abs(v - rv) <= 4 * EPS * scale
        assert abs(e - re) <= 4 * EPS * scale
    assert max(f.sizes) <= MAX_NODES
    assert len(f.sizes) == math.ceil(panels / 273)
    assert sum(f.sizes) == 15 * panels


@pytest.mark.parametrize("panels", [1, 272, 273, 274, 547])
def test_unsplit_partition_matches_reference(panels):
    pts = _edges(panels)
    f = _counted(_wave)
    value, err, evals = integrate(f, pts[0], pts[-1], breakpoints=pts[1:-1], abs_tol=1e3)
    ref_vals, ref_errs, scales = _reference(_wave, pts)
    scale = sum(scales)
    assert abs(value - sum(ref_vals, 0j)) <= 4 * EPS * scale
    assert abs(err - sum(ref_errs, 0.0)) <= 4 * EPS * scale
    assert err > 0
    assert evals == 15 * panels == sum(f.sizes)
    assert max(f.sizes) <= MAX_NODES
    assert len(f.sizes) == math.ceil(panels / 273)


def test_splits_take_one_panel_per_call():
    pts = _edges(300)
    f = _counted(lambda x: np.sqrt(np.abs(x - 100.3)))
    value, err, evals = integrate(f, pts[0], pts[-1], breakpoints=pts[1:-1])
    exact = (2.0 / 3.0) * (100.3 ** 1.5 + (pts[-1] - 100.3) ** 1.5)
    assert abs(value - exact) <= max(err, 1e-10) and err <= 1e-10 * abs(value)
    assert f.sizes[:2] == [MAX_NODES, 15 * 27]
    assert len(f.sizes) > 2 and set(f.sizes[2:]) == {15}
    assert evals == sum(f.sizes) == 15 * (300 + len(f.sizes) - 2)


@pytest.mark.parametrize("lo, hi", [
    (1.0, 0.0), (0.0, math.inf), (-math.inf, 0.0), (math.inf, math.inf),
    (math.nan, 1.0), (0.0, math.nan),
])
def test_bounds_must_be_finite_and_ordered(lo, hi):
    f = _counted(lambda x: x)
    with pytest.raises(DomainError):
        integrate(f, lo, hi)
    assert f.sizes == []


def test_empty_interval_is_zero_without_a_call():
    f = _counted(lambda x: x)
    assert integrate(f, 2.5, 2.5, breakpoints=[2.5, 3.0]) == (0, 0.0, 0)
    assert f.sizes == []


def test_breakpoints_outside_the_interval_are_ignored():
    f = _counted(lambda x: x * x)
    value, _, evals = integrate(f, 0.0, 1.0, breakpoints=[-1.0, 0.0, 0.5, 1.0, 2.0, math.nan])
    assert evals == 30 and f.sizes == [30]
    assert abs(value - 1.0 / 3.0) <= 4 * EPS


def test_budget_exhaustion_raises():
    f = _counted(lambda x: np.abs(x - 0.3) ** 0.5)
    with pytest.raises(ConvergenceError, match="budget of 100"):
        integrate(f, 0.0, 1.0, abs_tol=1e-14, rel_tol=1e-14, max_evals=100)
    assert sum(f.sizes) == 75 and set(f.sizes) == {15}


def test_an_initial_partition_over_budget_raises_before_a_call():
    # ten panels are 150 evaluations, over a budget of 100
    f = _counted(lambda x: x)
    with pytest.raises(ConvergenceError, match="budget of 100 evaluations exhausted"):
        integrate(f, 0.0, 10.0, breakpoints=range(1, 10), max_evals=100)
    assert f.sizes == []


def test_a_nan_integrand_raises():
    # NaN on half the interval: the first estimate is NaN, which used to end
    # the loop as if it had converged, returning (nan+nanj, nan, 15)
    f = _counted(lambda x: np.where(x < 0.5, np.nan, 1.0))
    with pytest.raises(ConvergenceError, match="not finite"):
        integrate(f, 0.0, 1.0)
    assert f.sizes == [15]


def test_an_infinite_integrand_value_raises():
    # 1/sqrt|x - 0.3| is integrable, but a split puts a node on 0.3, where
    # it is infinite; that used to return (nan, nan, 1545)
    def f(x):
        with np.errstate(divide="ignore"):
            return 1.0 / np.sqrt(np.abs(x - 0.3))

    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError, match="not finite"):
        integrate(f, 0.0, 1.0)
