"""Zeros of xi on the critical line and the smooth counting model.

The ordinates k_l with xi_z(i k_l) = 0 are found by a sign scan of the
real-valued restriction of xi to the line, on the grid where the smooth
curve crosses whole numbers, closed by the exact count N(t_max), then
refined by Newton's method on log xi inside each bracket.  The
smooth side is the curve phi(k) = (k/2pi) ln(k/2pi) - k/2pi + 7/8, its
root a, and the term bundles T4 and T5 that the transform of the smooth
density produces; the residual operation measures what is left of the
exact zero product after T5 is taken out.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._quad import integrate
from .errors import (
    ClusterError,
    ConvergenceError,
    DomainError,
    InsufficientZerosError,
    RangeError,
)
from .specfun import LN_2PI, LN_PI, PI, TWO_PI, _log_gamma_any, _log_xi_terms, xi_z, zeta
from .transforms import StepFunction, _nearest_integer, _track_phase, transform_step
from .transforms import count_zeros_contour  # noqa: F401  bench/tracing.py wraps it here


def phi_smooth(k):
    """(k/2pi) ln(k/2pi) - k/2pi + 7/8 for finite k > 0; scalar or array."""
    x = np.asarray(k, dtype=float) / TWO_PI
    if not np.all((x > 0) & (x < math.inf)):
        raise DomainError("phi_smooth requires finite k > 0")
    out = x * np.log(x) - x + 0.875
    return float(out) if np.ndim(out) == 0 else out


def _lambert_w0(c):
    """W0(c) for c > -1/e, scalar or array: Halley's iteration (Corless et al.
    1996) from log1p(c) until every step is at most 1e-15 (1 + |w|)."""
    w = np.log1p(c)
    done = False  # an entry stops once its own step is small, as it would alone
    for _ in range(20):
        ew = np.exp(w)
        f = w * ew - c
        step = f / (ew * (w + 1) - (w + 2) * f / (2 * w + 2))
        w = np.where(done, w, w - step)
        done = done | (np.abs(step) <= 1e-15 * (1 + np.abs(w)))
        if np.all(done):
            return w
    raise ConvergenceError("Lambert W did not converge in 20 Halley steps")


def _phi_inverse(level):
    """k above a where phi_smooth(k) = level >= 0, scalar or array: with
    x = k/2pi, x ln x - x = L - 7/8, so k = 2pi exp(1 + W0((L - 7/8)/e))."""
    return TWO_PI * np.exp(1 + _lambert_w0((np.asarray(level, float) - 0.875) / math.e))


def solve_a() -> float:
    """Root a of phi_smooth, where the curve starts; closed form."""
    return float(_phi_inverse(0.0))


#: The root a of phi_smooth, where the smooth counting curve starts.
A_ROOT = solve_a()


def t5_constant(a: float) -> float:
    """(a/pi)(2 - ln a + ln 2pi) - (7/4) ln a."""
    if not (a > 0 and math.isfinite(a)):
        raise DomainError(f"a must be positive, got {a!r}")
    return (a / PI) * (2.0 - math.log(a) + LN_2PI) - 1.75 * math.log(a)


def n_of_t(t: float) -> float:
    """Smooth zero count up to height t; same curve as phi_smooth.

    Kept as a separate name because the counting formula is usually
    written in T while the curve is read in k.
    """
    return phi_smooth(t)


def t5(z: complex) -> complex:
    """T4 + t5_constant(a), with T4 = (z/2) ln(z/2pi) - z/2 + (7/4) ln z."""
    z = complex(z)
    t4 = (z / 2) * cmath.log(z / TWO_PI) - z / 2 + 1.75 * cmath.log(z)
    return t4 + t5_constant(A_ROOT)


def _file_number(text: str, number: int, line: str) -> float:
    """float(text) if finite, else a DomainError naming zero-file line ``number``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"zero file line {number}: expected a number, got {line!r}")
    return value


@dataclass(frozen=True)
class ZeroList:
    """Ascending zero ordinates, complete below the scan ceiling t_max."""

    ordinates: np.ndarray
    t_max: float

    def __post_init__(self):
        arr = np.asarray(self.ordinates, dtype=float)
        object.__setattr__(self, "ordinates", arr)
        if arr.ndim != 1:
            raise DomainError("ordinates must be one-dimensional")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise DomainError(f"t_max must be positive, got {self.t_max!r}")
        if len(arr):
            if np.any(np.diff(arr) <= 0):
                raise DomainError("ordinates must be strictly ascending")
            if arr[0] <= A_ROOT:
                raise DomainError(
                    f"first ordinate {arr[0]:g} is not above the curve root {A_ROOT:g}"
                )
            if arr[-1] >= self.t_max:
                raise DomainError("all ordinates must lie strictly below t_max")

    def __len__(self) -> int:
        return len(self.ordinates)

    def to_step(self) -> StepFunction:
        return StepFunction((float(k), 1) for k in self.ordinates)

    def count_below(self, t):
        """Number of ordinates <= t; scalar or array."""
        out = np.searchsorted(self.ordinates, t, side="right")
        if np.ndim(t) == 0:
            return int(out)
        return out

    def to_text(self) -> str:
        """The zero-file format: a t_max header, then one ordinate per line."""
        lines = ["# xi zero ordinates (imaginary-axis, z-coordinates)",
                 f"# t_max={self.t_max:.10g}"]
        lines += [f"{k:.10f}" for k in self.ordinates]
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def _parse(cls, lines: Iterable[str], t_max: float | None) -> "ZeroList":
        header_tmax = None
        vals = []
        for number, raw in enumerate(lines, start=1):
            line = raw.strip()
            if line.startswith("#"):
                m = re.search(r"t_max\s*[=:]\s*([0-9eE+.\-]+)", line)
                if m:
                    header_tmax = _file_number(m.group(1), number, line)
            elif line:
                vals.append(_file_number(line, number, line))
        if t_max is None:
            t_max = header_tmax
        if t_max is None:
            if not vals:
                raise DomainError("zero file has no ordinates and no t_max header")
            t_max = float(np.nextafter(vals[-1], math.inf))
        return cls(np.asarray(vals, dtype=float), t_max=t_max)

    @classmethod
    def read(cls, path, t_max: float | None = None) -> "ZeroList":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DomainError(f"zero file {path} is not UTF-8 text ({exc.reason})") from None
        return cls._parse(text.splitlines(), t_max)

    @classmethod
    def bundled(cls) -> "ZeroList":
        """The packaged literature list: every ordinate below 100."""
        text = resources.files("zetaprod").joinpath("data/zeros_t100.txt").read_text(
            encoding="utf-8"
        )
        return cls._parse(text.splitlines(), None)


def _line_value(t: float) -> tuple[float, float]:
    """g(t) = xi_z(it) * exp(pi t / 4) and dg/dt: real, smooth, with the sign
    of xi on the line.

    Built from the log form L = log xi, so both stay finite where xi itself
    underflows; the factor exp(pi t / 4) cancels the decay of the gamma
    factor, and dg/dt = g (pi/4 - Im L').
    """
    log_xi, slope = _log_xi_terms(complex(0.5, t))
    g = math.cos(log_xi.imag) * math.exp(log_xi.real + 0.25 * PI * t)
    return g, g * (0.25 * PI - slope.imag)


def _newton_start(lo: float, g_lo: float, d_lo: float, hi: float, g_hi: float, d_hi: float) -> float:
    """Root in (lo, hi) of the cubic Hermite interpolant through both ends.

    Three Newton steps on the cubic from the chord's root; a step that
    leaves the bracket ends them where they stand.
    """
    h = hi - lo
    a1 = h * d_lo
    a2 = 3 * (g_hi - g_lo) - h * (2 * d_lo + d_hi)
    a3 = 2 * (g_lo - g_hi) + h * (d_lo + d_hi)
    x = g_lo / (g_lo - g_hi)
    for _ in range(3):
        p = g_lo + x * (a1 + x * (a2 + x * a3))
        dp = a1 + x * (2 * a2 + 3 * x * a3)
        if dp == 0 or not 0 < x - p / dp < 1:
            break
        x -= p / dp
    return lo + h * x


def _bisect_sign_change(lo: float, g_lo: float, d_lo: float,
                        hi: float, g_hi: float, d_hi: float) -> float:
    """Root of _line_value in (lo, hi), where g_lo and g_hi differ in sign.

    Newton's method on g, safeguarded by the bracket: it starts at
    :func:`_newton_start`, each evaluation replaces the end of the same
    sign, and a step that would leave the bracket bisects it instead.
    Stops after a step d with |d| <= 1e-6 and returns the point it reaches:
    with C = |g''/2g'| at most 3.1 at the zeros below 1000, that point is
    within C d^2 <= 3.1e-12 of the zero.  Near the zero g' is rounding
    noise, so it only ever aims a step the bracket checks; should such
    steps keep bisecting, a bracket 1e-12 wide ends the loop.  The name is
    the one bench/tracing.py wraps to count refinement evaluations.
    """
    t = _newton_start(lo, g_lo, d_lo, hi, g_hi, d_hi)
    while hi - lo > 1e-12:
        g, dg = _line_value(t)
        if (g > 0) == (g_lo > 0):
            lo = t
        else:
            hi = t
        step = -g / dg
        if not lo < t + step < hi:
            t = 0.5 * (lo + hi)
        elif abs(step) <= 1e-6:
            return t + step
        else:
            t += step
    return t


def _line_values(ts: np.ndarray) -> np.ndarray:
    """_line_value at each t of ts, one row (g, dg/dt) per t."""
    return np.array([_line_value(t) for t in ts.tolist()], dtype=float)


#: Narrowest scan interval the sign scan halves.  The grid intervals are
#: about 1.2 wide or more, and every t_max tried up to 1000 closes within
#: three rounds of halving, so an interval this narrow that still has to be
#: halved means the count N(t_max) cannot be closed.
_MIN_WIDTH = 1e-3


def _sign_scan(t_max: float, expected: int) -> np.ndarray:
    """Brackets (lo, g_lo, d_lo, hi, g_hi, d_hi) of the sign changes of
    _line_value (g and its slope d at both ends) on [10, t_max], once they
    number ``expected``: one per zero below t_max.

    The grid is 10, every k_n = _phi_inverse(n) with n < phi(t_max) - 1/2,
    and t_max: the paper's curve crosses n at k_n, about once per zero.
    While the sign changes fall short, every interval without one is halved,
    with its two neighbours (a Gram block; Rosser, Yohe and Schoenfeld 1969).
    """
    # phi(10) = 0.023, so k_1 = 17.85 is the first level above 10.  The last
    # interval spans at least half a level: one that started barely above
    # the width floor would reach it in a round or two of halving.
    ks = _phi_inverse(np.arange(1.0, phi_smooth(t_max) - 0.5))
    ts = np.concatenate(([10.0], ks, [t_max]))
    gs = _line_values(ts)
    while True:
        change = np.sign(gs[:-1, 0]) != np.sign(gs[1:, 0])
        found = int(np.count_nonzero(change))
        if found == expected:
            i = np.flatnonzero(change)
            return np.column_stack((ts[i], gs[i], ts[i + 1], gs[i + 1]))
        halve = ~change
        halve[1:] |= ~change[:-1]
        halve[:-1] |= ~change[1:]
        i = np.flatnonzero(halve)
        if found > expected or not len(i) or np.min(ts[i + 1] - ts[i]) < _MIN_WIDTH:
            raise ClusterError(f"scan found {found} zeros below {t_max:g}, N(t_max) = {expected}, "
                               f"with intervals halved down to {_MIN_WIDTH:g} wide")
        mids = 0.5 * (ts[i] + ts[i + 1])
        ts, gs = np.insert(ts, i + 1, mids), np.insert(gs, i + 1, _line_values(mids), axis=0)


def _theta(t: float) -> float:
    """Riemann-Siegel theta, Im log Gamma(1/4 + it/2) - (t/2) ln pi."""
    return _log_gamma_any(complex(0.25, 0.5 * t)).imag - 0.5 * t * LN_PI


def _zero_count(t: float) -> int:
    """Zeros of zeta with 0 < Im s < t <= 1000: N(t) = theta(t)/pi + 1 + arg zeta(1/2 + it)/pi
    (Riemann-von Mangoldt), the argument carried from 2 + it, where re zeta > 0, along the
    segment to 1/2 + it (Backlund; Edwards 1974, ch. 6)."""
    vals, change = _track_phase(lambda s: zeta(complex(s, t)), np.linspace(2.0, 0.5, 17),
                                f"zeta on [1/2, 2] + {t!r}i")
    return _nearest_integer(_theta(t) / PI + 1 + (cmath.phase(vals[0]) + change) / PI,
                            f"N({t:g})")


def find_zeros(t_max: float) -> ZeroList:
    """Zeros of xi on the critical line in [10, t_max], complete and simple.

    A sign scan on the paper's integer-level grid (see :func:`_sign_scan`)
    is closed against the exact count N(t_max), halving Gram blocks where
    it falls short; an interval that would need halving below
    ``_MIN_WIDTH`` raises :class:`ClusterError`.  Each sign change is then
    refined by bracketed Newton steps on the rescaled real xi, started at
    the root of the cubic through the scan's values and slopes (see
    :func:`_bisect_sign_change`), about 2.8 evaluations per zero; the
    returned ordinates lie within 1e-11 of the true zeros.  A t_max within
    rounding of an ordinate raises :class:`ProximityError`.
    """
    if not (t_max > 14):
        raise DomainError(f"t_max must exceed 14, got {t_max!r}")
    if t_max > 1000:
        raise RangeError("find_zeros supports t_max <= 1000")
    brackets = _sign_scan(t_max, _zero_count(t_max))
    roots = [_bisect_sign_change(*row) for row in brackets.tolist()]
    return ZeroList(np.asarray(roots, dtype=float), t_max=t_max)


class ResidualSample(NamedTuple):
    residual: float
    tail_estimate: float


def _check_residual_z(z: float, zeros: ZeroList) -> float:
    """z as a float, once it is in the residual's domain for these zeros."""
    z = float(z)
    if z < 50:
        raise DomainError("residual requires real z >= 50")
    if zeros.t_max < 2 * z:
        raise InsufficientZerosError(
            f"need zeros to t_max >= 2z = {2 * z:g}, have {zeros.t_max:g}"
        )
    return z


def residual(z: float, zeros: ZeroList) -> ResidualSample:
    """Exact zero product plus smooth tail, minus T5, at real z >= 50.

    The listed zeros enter exactly through the step transform; beyond
    zeros.t_max the staircase is replaced by the smooth density
    phi'(k) = ln(k/2pi)/2pi and the integral is taken in the
    integration-by-parts form.  That replacement leaves a boundary term
    log(1 + z^2/t_max^2) * Omega(t_max) at the splice, which is known
    exactly and subtracted; the oscillatory part that remains integrates
    to O(1/t_max) because the running mean of Omega decays.  The
    tail_estimate adds that to the O(1/z) of the asymptotic pieces and
    the quadrature estimate.
    """
    z = _check_residual_z(z, zeros)
    step_part = transform_step(zeros.to_step(), z).real
    zz = z * z
    big_t = zeros.t_max

    def tail_integrand(u):
        u = np.asarray(u, dtype=float)
        return np.log1p(zz * u * u) * (-np.log(TWO_PI * u)) / (TWO_PI * u * u)

    tail, qerr, _ = integrate(tail_integrand, 0.0, 1.0 / big_t,
                              abs_tol=1e-10, rel_tol=1e-10)
    # Splice boundary term: by parts over [t_max, inf) the oscillatory
    # part contributes -log(1+z^2/t^2)*Omega(t) at t = t_max exactly.
    omega_t = len(zeros.ordinates) - phi_smooth(big_t)
    boundary = -math.log1p(zz / (big_t * big_t)) * omega_t
    value = step_part + tail.real + boundary - t5(z).real
    return ResidualSample(value, 1.0 / big_t + 2.0 / z + qerr)


@dataclass(frozen=True)
class ResidualReport:
    """Residual samples plus the constant they should level off at.

    constant_derived recomputes the plateau from first principles:
    (1/4) ln(pi/2) - ln xi_z(0) - t5_constant(a).  constant_paper is the
    printed magnitude; the derivation fixes the sign as negative, and the
    report carries both so the discrepancy stays visible.
    """

    samples: tuple[tuple[float, float, float], ...]
    constant_derived: float
    constant_paper: float = 0.0464


def residual_report(z_values: Sequence[float], zeros: ZeroList) -> ResidualReport:
    """Residual samples at every z, each checked before any is computed."""
    for z in z_values:
        _check_residual_z(z, zeros)
    samples = []
    for z in z_values:
        sample = residual(z, zeros)
        samples.append((float(z), sample.residual, sample.tail_estimate))
    derived = 0.25 * math.log(PI / 2) - math.log(xi_z(0).real) - t5_constant(A_ROOT)
    return ResidualReport(samples=tuple(samples), constant_derived=derived)


@dataclass(frozen=True, eq=False)
class OmegaStats:
    """Oscillatory remainder Omega(k) = actual count - smooth curve.

    ``grid`` has rows (k, omega); ``running_mean`` has rows (T, mean of
    omega over [a, T] divided by T, trapezoid rule).
    """

    grid: np.ndarray
    running_mean: np.ndarray

    @property
    def final_mean(self) -> float:
        return float(self.running_mean[-1, 1])

    def sign_changes(self) -> int:
        om = self.grid[:, 1]
        om = om[om != 0]
        return int(np.sum(np.diff(np.sign(om)) != 0))


#: Most grid intervals omega_stats and the CLI's report accept: ten times the
#: largest grid in use (about 99k rows for t_max 1000 at step 0.01).
_MAX_GRID_ROWS = 1_000_000


def _check_grid(span: float, step: float) -> None:
    """Refuse a grid of more than _MAX_GRID_ROWS steps over span, before it is built."""
    if span / step > _MAX_GRID_ROWS:
        raise DomainError(
            f"grid step {step!r} over {span:g} makes more than {_MAX_GRID_ROWS:,} rows"
        )


def omega_stats(zeros: ZeroList, grid_step: float = 0.1) -> OmegaStats:
    """Omega on a grid over [a, zeros.t_max] with its running mean."""
    if not (0 < grid_step <= 0.1):
        raise DomainError(f"grid_step must lie in (0, 0.1], got {grid_step!r}")
    if not len(zeros):
        raise DomainError("omega_stats needs a nonempty zero list")
    _check_grid(zeros.t_max - A_ROOT, grid_step)
    n = int(math.floor((zeros.t_max - A_ROOT) / grid_step))
    ks = A_ROOT + grid_step * np.arange(n + 1)
    if ks[-1] < zeros.t_max - 1e-9:
        ks = np.append(ks, zeros.t_max)
    omega = zeros.count_below(ks) - phi_smooth(ks)
    dk = np.diff(ks)
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (omega[:-1] + omega[1:]) * dk)))
    means = integral / ks
    return OmegaStats(
        grid=np.column_stack((ks, omega)),
        running_mean=np.column_stack((ks, means)),
    )


def predict_zeros(n_max: int) -> np.ndarray:
    """Ordinates where the smooth curve crosses n - 1/2, for n = 1..n_max.

    These are the jump positions of the predicted staircase, in closed
    form.  The curve is strictly increasing past its root, so each level
    has exactly one crossing.
    """
    if n_max != int(n_max) or int(n_max) < 1:
        raise DomainError(f"n_max must be a positive integer, got {n_max!r}")
    return _phi_inverse(np.arange(1, int(n_max) + 1) - 0.5)


class CrossingCount(NamedTuple):
    exact: float
    midpoint: float
    bound: float


def crossing_count(k_a: float, k_b: float) -> CrossingCount:
    """phi(k_b) - phi(k_a), exactly and by the midpoint shortcut.

    The shortcut is (k_b - k_a)/2pi * ln((k_a + k_b)/4pi); its error is a
    second-order midpoint-rule remainder, guaranteed below
    (k_b - k_a)^3 / (8 pi k_a^2).
    """
    if not (k_a > A_ROOT):
        raise DomainError(f"k_a must exceed the curve root {A_ROOT:g}")
    if not (k_b >= k_a):
        raise DomainError("k_b must be >= k_a")
    exact = phi_smooth(k_b) - phi_smooth(k_a)
    midpoint = (k_b - k_a) / TWO_PI * math.log((k_a + k_b) / (2 * TWO_PI))
    bound = (k_b - k_a) ** 3 / (8 * PI * k_a * k_a)
    if not (abs(exact - midpoint) <= bound):
        raise ConvergenceError(
            f"midpoint shortcut off by {abs(exact - midpoint):g}, "
            f"beyond its bound {bound:g}"
        )
    return CrossingCount(exact, midpoint, bound)
