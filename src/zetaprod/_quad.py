"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

A single 7-15 pair is applied per panel and the worst panel (largest
Kronrod-minus-Gauss discrepancy) is bisected first.  The integrands in this
package are smooth away from a handful of known breakpoints, which callers
pass in so the initial partition already isolates them.  That partition is
evaluated in few integrand calls, at most _CALL_PANELS panels each (Shampine,
J. Comput. Appl. Math. 211 (2008)); a split evaluates one panel per call.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

import numpy as np

from .errors import ConvergenceError, DomainError

# QUADPACK 15-point Kronrod rule with embedded 7-point Gauss rule,
# tabulated over the full node set in ascending order.
_XK_HALF = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
])
_WK_HALF = np.array([
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
])
# The embedded 7-point Gauss rule weights every other node, from the second.
_WG_HALF = np.zeros(8)
_WG_HALF[1::2] = 0.1294849661688697, 0.2797053914892767, 0.3818300505051189, 0.4179591836734694

_XK = np.concatenate((-_XK_HALF[:-1], _XK_HALF[::-1]))
_WK = np.concatenate((_WK_HALF[:-1], _WK_HALF[::-1]))
_WG = np.concatenate((_WG_HALF[:-1], _WG_HALF[::-1]))


#: Panels per integrand call: 273 panels are 4,095 nodes, so each complex array
#: stays under 64 KB; larger ones take fresh pages once other work has trimmed the
#: heap, about 110 minor faults a sawtooth transform_numeric call between catalog rows.
_CALL_PANELS = 273


def _panels(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    # (values, error estimates) of the panels [lo[i], hi[i]], as lists
    vals, errs = [], []
    for i in range(0, len(lo), _CALL_PANELS):
        a, b = lo[i:i + _CALL_PANELS], hi[i:i + _CALL_PANELS]
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        x = (c[:, None] + h[:, None] * _XK).ravel()
        y = np.asarray(f(x), dtype=np.complex128).reshape(len(h), -1)
        i15 = h * (y * _WK).sum(axis=1)
        vals += i15.tolist()
        errs += abs(i15 - h * (y * _WG).sum(axis=1)).tolist()
    return vals, errs


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    *,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
    breakpoints: Iterable[float] = (),
    max_evals: int = 1_000_000,
) -> tuple[complex, float, int]:
    """Integrate ``f`` over [lo, hi] and return (value, error_estimate, n_evals).

    ``f`` must accept a float ndarray and return values castable to complex128.
    Refinement stops once the summed per-panel estimate drops below
    ``max(abs_tol, rel_tol * |value|)``; exceeding ``max_evals`` first, or an
    estimate that is not finite, raises :class:`ConvergenceError`.  The
    bounds must be finite with lo <= hi.
    """
    lo, hi = float(lo), float(hi)
    if not -np.inf < lo <= hi < np.inf:
        raise DomainError(f"integrate needs finite bounds lo <= hi, got [{lo!r}, {hi!r}]")
    pts = sorted({lo, hi, *(float(p) for p in breakpoints if lo < p < hi)})
    if 15 * (len(pts) - 1) > max_evals:
        raise ConvergenceError(f"quadrature budget of {max_evals} evaluations exhausted "
                               f"by the {len(pts) - 1} initial panels")

    # entries (-error, seq, a, b, value, error); seq counts the panels evaluated
    vals, errs = _panels(f, np.array(pts[:-1]), np.array(pts[1:]))
    heap = [(-e, s, a, b, v, e) for s, (a, b, v, e) in enumerate(zip(pts, pts[1:], vals, errs))]
    heapq.heapify(heap)
    seq, total, err = len(heap), sum(vals, 0j), sum(errs, 0.0)

    while not err <= max(abs_tol, rel_tol * abs(total)):
        if not np.isfinite(err):
            raise ConvergenceError(f"quadrature error estimate is {err}: "
                                   "an integrand value is not finite")
        if 15 * seq + 30 > max_evals:
            raise ConvergenceError(f"quadrature budget of {max_evals} evaluations exhausted "
                                   f"(error estimate {err:.3e})")
        _, _, a, b, val, e = heapq.heappop(heap)
        total -= val
        err -= e
        m = 0.5 * (a + b)
        for c, d in ((a, m), (m, b)):
            (v2,), (e2,) = _panels(f, np.array([c]), np.array([d]))
            heapq.heappush(heap, (-e2, seq, c, d, v2, e2))
            seq += 1
            total += v2
            err += e2

    return total, err, 15 * seq
