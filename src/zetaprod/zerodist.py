"""Zeros of xi on the critical line and the smooth counting model.

The ordinates k_l with xi_z(i k_l) = 0 are found by a sign scan of the
real-valued restriction of xi to the line, on the grid where the smooth
curve crosses whole numbers, closed by the exact count N(t_max), then
refined inside each bracket by quintic Hermite restarts on log xi.  The
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
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import ClassVar, Iterable, NamedTuple, Sequence

import numpy as np

from ._quad import integrate
from .errors import (
    ClusterError,
    ConvergenceError,
    DomainError,
    InsufficientZerosError,
    RangeError,
)
from .specfun import (LN_2PI, LN_PI, PI, TWO_PI, _log_gamma_any, _log_xi_terms,
                      log_xi_asymptotic, xi_z, zeta)
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


#: Smooth zero count N(t): the curve phi_smooth, named as the formula is written in t.
n_of_t = phi_smooth


def t5(z: complex) -> complex:
    """T4 + t5_constant(a) for re(z) > 10, with T4 = (z/2) ln(z/2pi) - z/2 + (7/4) ln z."""
    terms = log_xi_asymptotic(z)
    return terms.t1 + terms.t2 + terms.t3 + t5_constant(A_ROOT)


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

    @cached_property
    def step(self) -> StepFunction:
        """The counting measure: a unit jump at each ordinate, built once per list."""
        return StepFunction(np.column_stack((self.ordinates, np.ones_like(self.ordinates))))

    def count_below(self, t):
        """Number of ordinates <= t; scalar or array."""
        out = np.searchsorted(self.ordinates, t, side="right")
        return int(out) if np.ndim(t) == 0 else out

    def to_text(self) -> str:
        """The zero-file format: a t_max header, then one ordinate per line."""
        return (f"# xi zero ordinates (imaginary-axis, z-coordinates)\n# t_max={self.t_max:.10g}\n"
                + "%.10f\n" * len(self) % tuple(self.ordinates.tolist()))

    def write(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def _parse(cls, lines: Iterable[str]) -> "ZeroList":
        t_max = None
        vals = []
        for number, raw in enumerate(lines, start=1):
            line = raw.strip()
            if line.startswith("#"):
                m = re.search(r"t_max\s*[=:]\s*([0-9eE+.\-]+)", line)
                if m:
                    t_max = _file_number(m.group(1), number, line)
            elif line:
                vals.append(_file_number(line, number, line))
        if t_max is None:
            if not vals:
                raise DomainError("zero file has no ordinates and no t_max header")
            t_max = float(np.nextafter(vals[-1], math.inf))
        return cls(np.asarray(vals, dtype=float), t_max=t_max)

    @classmethod
    def read(cls, path) -> "ZeroList":
        """The zero file at path.  Only its ``# t_max=`` header sets the height;
        without one, t_max lies just above the last ordinate."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DomainError(f"zero file {path} is not UTF-8 text ({exc.reason})") from None
        return cls._parse(text.splitlines())

    @classmethod
    def bundled(cls) -> "ZeroList":
        """The packaged literature list: every ordinate below 100."""
        text = resources.files("zetaprod").joinpath("data/zeros_t100.txt").read_text(
            encoding="utf-8"
        )
        return cls._parse(text.splitlines())


#: Most points one call of the array kernel evaluates, read only by _line_values, which splits
#: the scan's points, or the next points of the brackets refined in lockstep, into the fewest such
#: calls, equal in size up to one.  find_zeros(990.92) took a median 14.1 ms with 128, against
#: 20.5 / 15.9 / 15.4 ms with 32 / 64 / 96 and 16.4 / 16.3 ms with 192 / 256, whose larger tables
#: cost some 1,700 minor page faults a run against none (60 runs each, alternated in one process).
_BLOCK = 128


def _line_values(ts: np.ndarray) -> np.ndarray:
    """g(t) = xi_z(it) * exp(pi t / 4) and dg/dt at each t of ts, one row
    (g, dg/dt) per t: real, smooth, with the sign of xi on the line.

    Built from the log form L = log xi, so both stay finite where xi itself
    underflows; the factor exp(pi t / 4) cancels the decay of the gamma
    factor, and dg/dt = g (pi/4 - Im L').  L comes from ceil(n / _BLOCK) calls
    of the array kernel _log_xi_terms at n points, equal in size up to one.
    """
    ts = np.asarray(ts, dtype=float)
    rows = np.empty((len(ts), 2))
    calls = -(-len(ts) // _BLOCK)  # array_split refuses 0 sections; no points need no call
    for t, row in zip(np.array_split(ts, calls), np.array_split(rows, calls)) if calls else ():
        log_xi, slope = _log_xi_terms(0.5 + 1j * t)
        g = np.cos(log_xi.imag) * np.exp(log_xi.real + 0.25 * PI * t)
        row[:, 0], row[:, 1] = g, g * (0.25 * PI - slope.imag)  # row is a view into rows
    return rows


def _dips(ts: np.ndarray, gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, t) for every interval [ts[i], ts[i + 1]] without a sign change of
    g = gs[:, 0] whose cubic Hermite interpolant (slopes gs[:, 1]) turns
    back across zero inside it; t is the interior extremum of that cubic.

    With h = ts[i + 1] - ts[i] the cubic is g_lo + x (a1 + x (a2 + x a3)) at
    ts[i] + h x.  The extremum that can cross is a minimum where g > 0 at the
    ends and a maximum where g < 0: x* = -a1 / (a2 + sign(g_lo) sqrt(a2^2 -
    3 a1 a3)), the root of the cubic's slope taken in the form that does not
    cancel.
    """
    (g_lo, d_lo), (g_hi, d_hi) = gs[:-1].T, gs[1:].T
    h = ts[1:] - ts[:-1]
    a1 = h * d_lo
    a2 = 3 * (g_hi - g_lo) - h * (2 * d_lo + d_hi)
    a3 = 2 * (g_lo - g_hi) + h * (d_lo + d_hi)
    sign = np.sign(g_lo)
    den = a2 + sign * np.sqrt(np.maximum(a2 * a2 - 3 * a1 * a3, 0.0))
    # 0 < -a1 / den < 1, tested without dividing: den may be 0
    inside = (a1 * den < 0) & (np.abs(a1) < np.abs(den))
    x = -a1 / np.where(inside, den, 1.0)
    turn = g_lo + x * (a1 + x * (a2 + x * a3))
    i = np.flatnonzero(inside & (sign == np.sign(g_hi)) & (np.sign(turn) == -sign))
    return i, ts[i] + h[i] * x[i]


def _hermite_root(nodes: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  positive: np.ndarray) -> np.ndarray:
    """Root in (lo, hi) of the Hermite interpolant p through the values g and
    slopes dg at ``nodes``, rows (t, g, dg) newest first, each entry a column
    of brackets whose newest node is an end: the cubic through two nodes,
    the quintic through three.

    p is in Newton form on the nodes taken twice each, newest first, with
    the confluent divided differences as coefficients (Stoer and Bulirsch,
    Introduction to Numerical Analysis, 2.1.5).  Newton steps on p start at
    the newest node, so the first is Newton's step on g; each keeps the end
    where p has the sign ``positive`` gives g at lo, one that would leave
    the bracket bisects it instead, and a bracket's steps end where its next
    would be at most 1e-9, far below how close p comes to g's zero.
    """
    t, g, dg = nodes.transpose(1, 0, 2)
    z = t.repeat(2, axis=0)
    table = np.empty_like(z[1:])
    table[::2], table[1::2] = dg, (g[1:] - g[:-1]) / (t[1:] - t[:-1])
    coef = [g[0], table[0]]
    for k in range(2, len(z)):
        table = (table[1:] - table[:-1]) / (z[k:] - z[:-k])
        coef.append(table[0])
    x, p, dp = t[0], g[0], dg[0]
    done = np.zeros(len(x), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # dp = 0: a step that bisects
        for _ in range(40):
            right = (p > 0) == positive
            lo, hi = np.where(right, x, lo), np.where(right, hi, x)
            ratio = p / dp
            done |= np.abs(ratio) <= 1e-9
            if done.all():
                break
            new = x - ratio
            x = np.where(done, x, np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi)))
            p, dp = coef[-1], 0.0
            for c, u in zip(coef[-2::-1], x - z[-2::-1]):
                p, dp = c + u * p, p + u * dp
    return x


def _bisect_sign_change(lo, g_lo, d_lo, hi, g_hi, d_hi):
    """Roots of g = _line_values in the brackets (lo, hi), six columns with
    one entry per bracket, where g_lo and g_hi differ in sign.

    The brackets are refined in lockstep: in each round every unfinished
    bracket proposes its next point, the root of :func:`_hermite_root`, and
    one call of :func:`_line_values` evaluates them all.  The first point is
    the root of the cubic through the bracket ends; each evaluation replaces
    the end of the same sign, and the next point is the root of the quintic
    through the newest point and the two nodes before it, about two
    evaluations a zero.  A bracket stops after a Newton step d with
    |d| (|d| + w) <= (8e-7)^2: with C = |g''/2g'| at most 3.1 at the zeros
    below 1000, the point it reaches is within C |d| (|d| + w) <= 2e-12 of
    the zero.  The slope is g' (w = 0) unless g' is more than half off the
    chord to the newest earlier node (w away): within about 1e-12 of a zero,
    where restarts can land, g' is rounding noise.  A bracket 1e-12 wide
    stops at its newest point.  Each leaves in the round that stops it.  The
    name is the one bench/tracing.py wraps to count refinement evaluations.
    """
    roots = np.empty(len(lo))
    live, positive = np.arange(len(lo)), g_lo > 0
    nodes = np.array([(hi, g_hi, d_hi), (lo, g_lo, d_lo)], dtype=float)
    while len(live):
        x = _hermite_root(nodes, lo, hi, positive)
        # rounding can put the root on an end of the bracket
        t = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        g, dg = _line_values(t).T
        right = (g > 0) == positive
        lo, hi = np.where(right, t, lo), np.where(right, hi, t)
        near, g_near = nodes[0, :2]
        chord = (g - g_near) / (t - near)
        trust = np.abs(dg - chord) <= 0.5 * np.abs(chord)
        step = -g / np.where(trust, dg, chord)
        end, size = t + step, np.abs(step)
        width = np.where(trust, 0.0, np.abs(t - near))
        stop = (size * (size + width) <= 6.4e-13) & (lo <= end) & (end <= hi)
        done = stop | (hi - lo <= 1e-12)
        roots[live[done]] = np.where(stop, end, t)[done]
        go = ~done
        live, lo, hi, positive = live[go], lo[go], hi[go], positive[go]
        nodes = np.concatenate(([(t, g, dg)], nodes[:2]))[..., go]
    return roots


#: Narrowest scan interval the sign scan splits.  The grid intervals are
#: about 1.2 wide or more, and every t_max tried up to 1000 closes within
#: a few rounds, so an interval this narrow that still has to be split
#: means the count N(t_max) cannot be closed.
_MIN_WIDTH = 1e-3


def _sign_scan(t_max: float, expected: int) -> np.ndarray:
    """Brackets (lo, g_lo, d_lo, hi, g_hi, d_hi) of the sign changes of
    _line_values (g and its slope d at both ends) on [10, t_max], once they
    number ``expected``: one per zero below t_max.

    The grid is 10, every k_n = _phi_inverse(n) with n < phi(t_max) - 1/2,
    and t_max: the paper's curve crosses n at k_n, about once per zero.
    While the sign changes fall short, each round splits intervals without
    one.  Where the cubic Hermite interpolant through the values and slopes
    of an interval turns back across zero (see :func:`_dips`), g is taken
    at that turn, which lies between the two zeros of a missed pair.  Only
    in a round where no interval dips is every interval without a sign
    change halved, with its two neighbours (a Gram block; Rosser, Yohe and
    Schoenfeld 1969).  An interval to be split that is narrower than
    _MIN_WIDTH, or more sign changes than expected, is a ClusterError.
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
        i, new = _dips(ts, gs)
        if not len(i):
            halve = ~change
            halve[1:] |= ~change[:-1]
            halve[:-1] |= ~change[1:]
            i = np.flatnonzero(halve)
            new = 0.5 * (ts[i] + ts[i + 1])
        if found > expected or not len(i) or np.min(ts[i + 1] - ts[i]) < _MIN_WIDTH:
            raise ClusterError(f"scan found {found} zeros below {t_max:g}, N(t_max) = {expected}, "
                               f"with intervals split down to {_MIN_WIDTH:g} wide")
        ts, gs = np.insert(ts, i + 1, new), np.insert(gs, i + 1, _line_values(new), axis=0)


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
    is closed against the exact count N(t_max): where it falls short it
    probes the dips of the cubic through the scan's values and slopes, and
    halves Gram blocks only in a round with no dip to probe; an interval
    that would need splitting below ``_MIN_WIDTH`` raises
    :class:`ClusterError`.  Each sign change is then refined on the
    rescaled real xi from the root of the same cubic, restarting at the
    root of the quintic Hermite interpolant through the last three points,
    both found by :func:`_hermite_root` (see :func:`_bisect_sign_change`),
    about 2.2 points per zero, all brackets refined in lockstep; the
    returned ordinates lie within 2e-12 of the true zeros.  Both phases
    evaluate xi on the line in kernel calls of at most _BLOCK points, equal
    in size up to one within a batch: 4 / 11 / 20 at t_max = 100 / 500 / 1000.
    A t_max within rounding of an ordinate raises :class:`ProximityError`.
    """
    if not (t_max > 14):
        raise DomainError(f"t_max must exceed 14, got {t_max!r}")
    if t_max > 1000:
        raise RangeError("find_zeros supports t_max <= 1000")
    brackets = _sign_scan(t_max, _zero_count(t_max))
    return ZeroList(_bisect_sign_change(*brackets.T), t_max=t_max)


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
    step_part = transform_step(zeros.step, z).real
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
    printed magnitude; the derivation fixes the sign as negative, and every
    report carries both so the discrepancy stays visible.
    """

    samples: tuple[tuple[float, float, float], ...]
    constant_derived: float
    constant_paper: ClassVar[float] = 0.0464


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
