"""Log transforms of counting measures, their closed forms, and contour counts.

The central object is the transform ``T[phi](z) = 2 z^2 * integral of
phi(k) / (k (k^2 + z^2)) dk`` over k > 0, which turns a zero-counting
density phi into the logarithm of an even entire function with those zeros
on the imaginary axis.  Step measures get the exact summed form; density
forms get adaptive quadrature plus a catalog of closed-form answers to
verify it against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from ._quad import integrate
from .errors import (
    ConvergenceError,
    DomainError,
    ProximityError,
    SingularityError,
)
from .specfun import PI, TWO_PI

LN_2 = math.log(2.0)


def _log1p_c(x: complex) -> complex:
    """log(1 + x) for complex x, accurate as x -> 0."""
    if abs(x) < 1e-4:
        return x * (1 + x * (-0.5 + x * (1 / 3 + x * (-0.25 + 0.2 * x))))
    return cmath.log(1 + x)


class StepFunction:
    """Nondecreasing step function: jumps of positive integer weight at k > 0.

    ``jumps`` is an iterable of (position, weight) pairs with strictly
    increasing positions.
    """

    __slots__ = ("positions", "weights", "_cum")

    def __init__(self, jumps: Iterable[tuple[float, int]]):
        pos = []
        wts = []
        for k, w in jumps:
            k = float(k)
            if not (k > 0) or not math.isfinite(k):
                raise DomainError(f"jump position must be finite and positive, got {k!r}")
            if w != int(w) or int(w) < 1:
                raise DomainError(f"jump weight must be a positive integer, got {w!r}")
            if pos and k <= pos[-1]:
                raise DomainError("jump positions must be strictly increasing")
            pos.append(k)
            wts.append(int(w))
        self.positions = np.asarray(pos, dtype=float)
        self.weights = np.asarray(wts, dtype=np.int64)
        self._cum = np.concatenate(([0], np.cumsum(self.weights)))

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def jumps(self) -> list[tuple[float, int]]:
        return [(float(k), int(w)) for k, w in zip(self.positions, self.weights)]

    def count_at(self, k):
        """Total weight at positions <= k; accepts a scalar or an array."""
        idx = np.searchsorted(self.positions, k, side="right")
        out = self._cum[idx]
        if np.ndim(k) == 0:
            return int(out)
        return out

    def __add__(self, other: "StepFunction") -> "StepFunction":
        merged: dict[float, int] = {}
        for k, w in (*self.jumps, *other.jumps):
            merged[k] = merged.get(k, 0) + w
        return StepFunction(sorted(merged.items()))

    def __repr__(self) -> str:
        return f"StepFunction({len(self)} jumps, total weight {int(self._cum[-1])})"


class DensityKind(Enum):
    UNIT_STEP = "unit_step"              # u(k - a)
    K_STEP = "k_step"                    # k u(k - a)
    LNK_STEP = "lnk_step"                # ln(k) u(k - a)
    K_LNK_STEP = "k_lnk_step"            # k ln(k) u(k - a)
    LNK_OVER_K_STEP = "lnk_over_k_step"  # (ln(k)/k) u(k - a)
    K_SQRT_K = "k_sqrt_k"                # k sqrt(k)
    K_SQRT_K_LNK = "k_sqrt_k_lnk"        # k sqrt(k) ln(k)
    INV_K_STEP = "inv_k_step"            # u(k - a) / k
    INV_K2_STEP = "inv_k2_step"          # u(k - a) / k^2
    SAWTOOTH_PERIODIC = "sawtooth_periodic"  # saw(k / a), period a


_CUTOFF_KINDS = frozenset({
    DensityKind.UNIT_STEP,
    DensityKind.K_STEP,
    DensityKind.LNK_STEP,
    DensityKind.K_LNK_STEP,
    DensityKind.LNK_OVER_K_STEP,
    DensityKind.INV_K_STEP,
    DensityKind.INV_K2_STEP,
})


@dataclass(frozen=True)
class DensityForm:
    """A density phi(k) on k > 0.

    ``a`` is the cutoff for the stepped kinds and the period for
    SAWTOOTH_PERIODIC; the pure power kinds ignore it.  The sawtooth is
    saw(x) = -(x - round(x)) with x = k / a, the usual centered
    fractional-part remainder.
    """

    kind: DensityKind
    a: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, DensityKind):
            raise DomainError(f"kind must be a DensityKind, got {self.kind!r}")
        if not (self.a > 0 and math.isfinite(self.a)):
            raise DomainError(f"a must be positive and finite, got {self.a!r}")

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        kind = self.kind
        if kind is DensityKind.SAWTOOTH_PERIODIC:
            x = k / self.a
            out = -(x - np.floor(x + 0.5))
        elif kind is DensityKind.K_SQRT_K:
            out = k * np.sqrt(k)
        elif kind is DensityKind.K_SQRT_K_LNK:
            out = k * np.sqrt(k) * np.log(k)
        else:
            out = np.zeros_like(k)
            m = k >= self.a
            km = k[m]
            if kind is DensityKind.UNIT_STEP:
                out[m] = 1.0
            elif kind is DensityKind.K_STEP:
                out[m] = km
            elif kind is DensityKind.LNK_STEP:
                out[m] = np.log(km)
            elif kind is DensityKind.K_LNK_STEP:
                out[m] = km * np.log(km)
            elif kind is DensityKind.LNK_OVER_K_STEP:
                out[m] = np.log(km) / km
            elif kind is DensityKind.INV_K_STEP:
                out[m] = 1.0 / km
            else:  # INV_K2_STEP
                out[m] = 1.0 / km ** 2
        if out.ndim == 0:
            return float(out)
        return out


class TransformEvaluation(NamedTuple):
    value: complex
    abs_error_estimate: float


def transform_step(phi: StepFunction, z: complex) -> complex:
    """Exact transform of a step measure: sum of w_l * log(1 + z^2 / k_l^2)."""
    z = complex(z)
    w = (z * z) / (phi.positions ** 2)
    if np.any(np.abs(1 + w) < 1e-12):
        raise SingularityError("z coincides with +-i*k_l for some jump position k_l")
    return complex(np.sum(phi.weights * np.log1p(w)))


def transform_numeric(phi: DensityForm, z: complex) -> TransformEvaluation:
    """Adaptive quadrature of the transform of a density form.

    Splits (0, inf) at the known breakpoints of phi, maps the tail beyond
    k_max = max(100, 20 |z|) to a finite interval with k = 1/v^2, and
    returns the value with an honest absolute error estimate (targets:
    2e-10 absolute, 2e-9 relative, at most 1e6 evaluations).  Requires
    |arg z| < pi/4 so the denominator k^2 + z^2 stays away from the
    positive k-axis.  The sawtooth kind, which the substitution would make
    nonsmooth, instead integrates period by period out to
    max(500, 20 |z|) and adds an analytic tail bound to the estimate.
    """
    z = complex(z)
    if not (z.real > 0 and abs(z.imag) < z.real):
        raise DomainError("transform_numeric requires |arg z| < pi/4")
    zz = z * z
    r = abs(z)
    abs_tol, rel_tol, max_evals = 2e-10, 2e-9, 1_000_000

    def g(k):
        return phi(k) * (2 * zz) / (k * (k * k + zz))

    if phi.kind is DensityKind.SAWTOOTH_PERIODIC:
        kmax = max(500.0, 20.0 * r)
        period = phi.a
        jumps = np.arange(0.5 * period, kmax, period)
        seeds = [*jumps, r] if 0 < r < kmax else list(jumps)
        val, err, evals = integrate(
            g, 0.0, kmax,
            abs_tol=abs_tol, rel_tol=rel_tol,
            breakpoints=seeds, max_evals=max_evals,
        )
        tail_bound = period * r * r / (2.0 * kmax ** 3)
        return TransformEvaluation(val, err + tail_bound)

    kmax = max(100.0, 20.0 * r)
    lo = phi.a if phi.kind in _CUTOFF_KINDS else 0.0
    seeds = [s for s in (0.5 * r, r, 4 * r) if lo < s < kmax]
    budget = max_evals - max_evals // 5
    val, err, evals = integrate(
        g, lo, kmax,
        abs_tol=0.5 * abs_tol, rel_tol=0.5 * rel_tol,
        breakpoints=seeds, max_evals=budget,
    )

    def g_tail(v):
        return 4 * zz * v ** 3 * phi(1.0 / v ** 2) / (1 + v ** 4 * zz)

    tail, terr, _ = integrate(
        g_tail, 0.0, kmax ** -0.5,
        abs_tol=0.5 * abs_tol, rel_tol=0.5 * rel_tol,
        max_evals=max_evals - evals,
    )
    return TransformEvaluation(val + tail, err + terr)


def _square_power_series(first: complex, ratio: complex, step: int) -> complex:
    # sum_{j>=0} first * ratio^j / (1 + step j)^2, for |ratio| <= 0.91: the
    # dilogarithm Li2(w) is (w, w, 1), the inverse tangent integral Ti2(x)
    # is (x, -x^2, 2)
    tot = 0j
    power = first
    for j in range(2000):
        d = 1 + step * j
        term = power / (d * d)
        tot += term
        if j >= 20 and abs(term) < 1e-16 * max(abs(tot), 1e-30):
            return tot
        power *= ratio
    raise ConvergenceError("power series did not converge; ratio too close to 1")


_ROW_KINDS = {
    1: DensityKind.UNIT_STEP,
    2: DensityKind.K_STEP,
    3: DensityKind.LNK_STEP,
    4: DensityKind.K_LNK_STEP,
    5: DensityKind.LNK_OVER_K_STEP,
    6: DensityKind.K_SQRT_K,
    7: DensityKind.K_SQRT_K_LNK,
    8: DensityKind.INV_K_STEP,
    9: DensityKind.INV_K2_STEP,
}

#: Rows whose catalog entry is a large-|z| truncation rather than an
#: identity; closed and numeric values then differ by the dropped terms,
#: 2a^3/(3z^2) (row 2) and (2a^3/z^2)(ln(a)/3 - 1/9) (row 4) to leading
#: order: below 1e-3 at the default verification points and for |z| >= 50 max(1, a)^1.5.
TRUNCATED_ROWS = frozenset({2, 4})

#: Default (a, z) pairs at which verify_table_row is exercised.
ROW_VERIFICATION_PAIRS: dict[int, tuple[tuple[float, complex], ...]] = {
    1: ((1.0, 2.0), (0.5, 1 + 0.5j), (2.0, 3.0), (3.0, 1.5), (1.0, 10 + 4j)),
    2: ((0.5, 60.0), (0.8, 50.0), (1.0, 50.0), (1.5, 90.0), (2.0, 100.0)),
    3: ((1.0, 2.0), (1.5, 4.0), (0.7, 2.0), (2.0, 8.0), (1.0, 3 + 1j)),
    4: ((0.5, 60.0), (0.8, 50.0), (1.0, 50.0), (1.5, 90.0), (2.0, 100.0)),
    5: ((1.0, 2.0), (1.5, 6.0), (0.8, 3.0), (2.0, 8.0), (1.0, 4 + 1.5j)),
    6: ((1.0, 2.0), (1.0, 5 + 1j), (1.0, 0.5), (1.0, 8.0), (1.0, 3 + 2j)),
    7: ((1.0, 4.0), (1.0, 2 + 0.5j), (1.0, 6.0), (1.0, 1.5), (1.0, 5 + 3j)),
    8: ((1.0, 2.0), (0.5, 1.0), (2.0, 5 + 2j), (1.5, 3.0), (1.0, 0.8 + 0.3j)),
    9: ((1.0, 3.0), (0.5, 2.0), (1.5, 4 + 1j), (2.0, 6.0), (0.8, 1 + 0.4j)),
}


def table_row_closed_form(row: int, a: float, z: complex) -> complex:
    """Catalog value of the transform for one density row.

    Rows 1, 3, 5, 6, 7, 8, 9 are identities; rows 2 and 4 are the standard
    large-|z| truncations (see TRUNCATED_ROWS).  Rows 3 and 5 require
    |z| >= 1.05 * max(1, a) so their series converge with margin; row 4
    requires |z| >= 1.
    """
    if row not in _ROW_KINDS:
        raise DomainError(f"row must be 1..9, got {row!r}")
    if not (a > 0 and math.isfinite(a)):
        raise DomainError(f"cutoff a must be positive, got {a!r}")
    z = complex(z)
    if row in (6, 7, 8, 9) and z == 0:
        raise DomainError("z must be nonzero for this row")

    if row == 1:
        w = (z / a) ** 2
        if abs(1 + w) < 1e-12:
            raise SingularityError("1 + z^2/a^2 vanishes")
        return _log1p_c(w)
    if row == 2:
        return PI * z - 2 * a
    if row == 3:
        if abs(z) < 1.05 * max(1.0, a):
            raise DomainError("row 3 closed form needs |z| >= 1.05 * max(1, a)")
        la = math.log(a)
        w = (a / z) ** 2
        return (cmath.log(z) ** 2 - la * la + PI * PI / 12
                + la * _log1p_c(w) + 0.5 * _square_power_series(-w, -w, 1))
    if row == 4:
        if abs(z) < 1.0:
            raise DomainError("row 4 closed form needs |z| >= 1")
        return PI * z * cmath.log(z) - 2 * a * (math.log(a) - 1.0)
    if row == 5:
        if abs(z) < 1.05 * max(1.0, a):
            raise DomainError("row 5 closed form needs |z| >= 1.05 * max(1, a)")
        la = math.log(a)
        x = a / z
        return (2 * (la + 1) / a - PI * cmath.log(z) / z
                + (2 * la / z) * cmath.atan(x)
                - (2 / z) * _square_power_series(x, -x * x, 2))
    if row == 6:
        return PI * math.sqrt(2.0) * z * cmath.sqrt(z)
    if row == 7:
        return (PI / math.sqrt(2.0)) * z * cmath.sqrt(z) * (2 * cmath.log(z) + PI)
    if row == 8:
        return 2.0 / a - PI / z + (2.0 / z) * cmath.atan(a / z)
    # row 9
    w = (z / a) ** 2
    if abs(1 + w) < 1e-12:
        raise SingularityError("1 + z^2/a^2 vanishes")
    return 1.0 / (a * a) - _log1p_c(w) / (z * z)


class TableRowCheck(NamedTuple):
    row: int
    a: float
    z: complex
    closed: complex
    numeric: TransformEvaluation
    tolerance: float
    agree: bool


def verify_table_row(row: int, a: float, z: complex) -> TableRowCheck:
    """Compare the catalog closed form against adaptive quadrature.

    The tolerance is max(1e-6, 3 * quadrature error estimate), widened to
    1e-3 for the truncated rows 2 and 4.
    """
    closed = table_row_closed_form(row, a, z)
    phi = DensityForm(kind=_ROW_KINDS[row], a=a)
    numeric = transform_numeric(phi, z)
    tol = max(1e-6, 3.0 * numeric.abs_error_estimate)
    if row in TRUNCATED_ROWS:
        tol = max(tol, 1e-3)
    agree = abs(closed - numeric.value) <= tol
    return TableRowCheck(row, a, complex(z), closed, numeric, tol, agree)


class SineIdentityResult(NamedTuple):
    numeric: float
    closed: float
    abs_error_estimate: float


def sine_integral_identity(a: float) -> SineIdentityResult:
    """integral of sin(y) / (y (y^2 + a^2)) dy over y > 0, two ways.

    The closed form is pi (1 - exp(-a)) / (2 a^2).  The numeric side sums
    one quadrature panel per half-period of the sine over 48 half-periods
    and accelerates the alternating partial sums by repeated averaging.
    """
    if not (a > 0 and math.isfinite(a)):
        raise DomainError(f"a must be positive, got {a!r}")
    closed = PI * (1.0 - math.exp(-a)) / (2.0 * a * a)

    def g(y):
        y = np.asarray(y, dtype=float)
        return np.sinc(y / PI) / (y * y + a * a)

    vals = []
    qerr = 0.0
    for n in range(48):
        v, e, _ = integrate(g, n * PI, (n + 1) * PI, abs_tol=1e-14, rel_tol=1e-13)
        vals.append(v.real)
        qerr += e
    rows = [np.cumsum(vals)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append(0.5 * (prev[:-1] + prev[1:]))
    numeric = float(rows[-1][0])
    accel_err = abs(numeric - float(rows[-2][0]))
    return SineIdentityResult(numeric, closed, accel_err + qerr)


class CoshDemoResult(NamedTuple):
    reconstructed: complex
    exact: complex


def cosh_demo(z: complex, n_terms: int) -> CoshDemoResult:
    """log cosh z from its truncated exponential series vs the closed form.

    The reconstruction error is below exp(-2 re(z) (n+1)) / (n+1) plus
    roundoff.  Requires re(z) > 0 and a finite 2 n Im(z).
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError("cosh_demo requires re(z) > 0")
    if n_terms != int(n_terms) or not (1 <= int(n_terms) <= 10 ** 6):
        raise DomainError(f"n_terms must be an integer in [1, 1e6], got {n_terms!r}")
    if not math.isfinite(2 * int(n_terms) * z.imag):
        raise DomainError(f"cosh_demo requires 2 n Im(z) finite, got Im(z) = {z.imag!r}")
    n = np.arange(1, int(n_terms) + 1)
    signs = np.where(n % 2 == 1, 1.0, -1.0)
    series = complex(np.sum(signs * np.exp(-2 * z * n) / n))
    return CoshDemoResult(z - LN_2 + series, _log_cosh(z))


def _log_cosh(w: complex) -> complex:
    """log cosh w for re(w) > 0, as w - log 2 + log(1 + exp(-2w))."""
    return w - LN_2 + _log1p_c(cmath.exp(-2 * w))


class MultiplicityDemoResult(NamedTuple):
    ratio: complex
    limit: float


def multiplicity_demo(n: int, z: complex) -> MultiplicityDemoResult:
    """cosh(z/n)^n / cosh(z) against its deep right-half-plane limit 2^(1-n).

    Requires re(z)/n >= 2 so both cosh factors are dominated by their
    growing exponential.
    """
    if n != int(n) or int(n) < 2:
        raise DomainError(f"n must be an integer >= 2, got {n!r}")
    n = int(n)
    z = complex(z)
    if z.real / n < 2:
        raise DomainError("multiplicity_demo requires re(z)/n >= 2")
    ratio = cmath.exp(n * _log_cosh(z / n) - _log_cosh(z))
    return MultiplicityDemoResult(ratio, 2.0 ** (1 - n))


def axial_product(f0: float, zeros: StepFunction, z: complex) -> complex:
    """f0 times the product of (1 + z^2/k_l^2)^w_l over the jump list.

    This is the even entire function with value f0 at the origin and the
    given imaginary-axis zero multiset, evaluated through the exact step
    transform.
    """
    if not math.isfinite(f0) or f0 == 0:
        raise DomainError("f0 must be finite and nonzero")
    return f0 * cmath.exp(transform_step(zeros, z))


@dataclass(frozen=True)
class StripQuad:
    """A quartic strip factor 1 + 2 cos(beta) z^2/q^2 + z^4/q^4.

    It is the product of the two conjugate quadratics for a zero pair at
    distance q and half-angle beta off the imaginary axis.  The flatness
    parameter theta = 8 q^2 (1 - cos beta) must stay below 1, which pins
    the pair inside the unit strip; beta = 0 is the degenerate double
    zero on the axis.
    """

    q: float
    beta: float

    def __post_init__(self):
        if not (self.q > 0.5 and math.isfinite(self.q)):
            raise DomainError(f"q must exceed 1/2, got {self.q!r}")
        if not (0 <= self.beta and math.isfinite(self.beta)):
            raise DomainError(f"beta must be >= 0, got {self.beta!r}")
        if self.theta >= 1.0:
            raise DomainError(
                f"theta = 8 q^2 (1 - cos beta) = {self.theta:.6g} must be < 1"
            )

    @property
    def theta(self) -> float:
        return 8.0 * self.q * self.q * (1.0 - math.cos(self.beta))

    @classmethod
    def from_theta(cls, q: float, theta: float) -> "StripQuad":
        if not (0 <= theta < 1):
            raise DomainError(f"theta must lie in [0, 1), got {theta!r}")
        if not (q > 0.5 and math.isfinite(q)):
            raise DomainError(f"q must exceed 1/2, got {q!r}")
        return cls(q=q, beta=math.acos(1.0 - theta / (8.0 * q * q)))


def strip_quad_factor(quad: StripQuad, z: complex) -> complex:
    z = complex(z)
    w = (z / quad.q) ** 2
    return 1.0 + 2.0 * math.cos(quad.beta) * w + w * w


def _strip_correction(quad: StripQuad, z: complex) -> tuple[complex, complex]:
    """w = z^2/q^2 and u = theta w / (4 q^2 (1 + w)^2), with F = (1 + w)^2 (1 - u)."""
    w = (z / quad.q) ** 2
    base = 1.0 + w
    if abs(base) < 1e-12:
        raise SingularityError("z^2 = -q^2 is a double zero of the reference factor")
    return w, (quad.theta / (4.0 * quad.q * quad.q)) * w / (base * base)


def strip_decomposition_check(quad: StripQuad, z: complex) -> float:
    """Residual of log F = 2 log(1 + z^2/q^2) + log(1 - u).

    Here u = theta z^2 / (4 q^4 (1 + z^2/q^2)^2); the identity is exact, so
    away from the singular set the residual is roundoff-sized.  The
    imaginary part is compared modulo 2 pi so the branch choice of the
    left-hand log cannot masquerade as a defect.
    """
    z = complex(z)
    w, u = _strip_correction(quad, z)
    big_f = strip_quad_factor(quad, z)
    if abs(big_f) < 1e-280:
        raise SingularityError("strip factor vanishes at this z")
    diff = cmath.log(big_f) - 2.0 * _log1p_c(w) - _log1p_c(-u)
    di = diff.imag - TWO_PI * round(diff.imag / TWO_PI)
    return math.hypot(diff.real, di)


class CorrectionBound(NamedTuple):
    sum_abs: float
    bound: float
    holds: bool
    first_violation: int | None


def correction_term_bound(quads: Sequence[StripQuad], z: complex) -> CorrectionBound:
    """Sum of |log(1 - u_m)| against the budget sum of theta_m / (4 q_m^2).

    In the wedge |arg z| <= pi/4 each |u_m| is at most theta_m / (8 q_m^2)
    < 1/2, which gives the per-term bound; ``first_violation`` reports the
    index of the first term exceeding its own budget, if any.
    """
    z = complex(z)
    if not (z.real > 0 and abs(z.imag) <= z.real):
        raise DomainError("correction_term_bound requires |arg z| <= pi/4")
    total = 0.0
    budget = 0.0
    first_violation: int | None = None
    for i, quad in enumerate(quads):
        corr = abs(_log1p_c(-_strip_correction(quad, z)[1]))
        per = quad.theta / (4.0 * quad.q * quad.q)
        total += corr
        budget += per
        if corr > per and first_violation is None:
            first_violation = i
    holds = first_violation is None and total <= budget + 1e-15
    return CorrectionBound(total, budget, holds, first_violation)


def _track_phase(g: Callable[[float], complex], params: np.ndarray, what: str):
    """Samples of g at params, path parameters in path order (either direction), and the
    continuous change of arg g along the path.  Steps whose phase jumps by more than pi/2
    are bisected, new samples going in by index; :class:`ProximityError` names ``what``
    when |g| dips below 1e-9 of its maximum."""
    vals = np.array([complex(g(p)) for p in params])
    for _ in range(40):
        absv = np.abs(vals)
        if absv.min() < 1e-9 * absv.max():
            raise ProximityError(f"{what} passes within 1e-9 (relative) of a zero")
        dphi = np.angle(vals[1:] / vals[:-1])
        bad = np.flatnonzero(np.abs(dphi) > PI / 2)
        if bad.size == 0:
            return vals, float(np.sum(dphi))
        if len(vals) + bad.size > 1_000_000:
            raise ConvergenceError("phase refinement exceeded 1e6 samples")
        mid = 0.5 * (params[bad] + params[bad + 1])
        params = np.insert(params, bad + 1, mid)
        vals = np.insert(vals, bad + 1, [complex(g(p)) for p in mid])
    raise ConvergenceError("phase jumps persisted after 40 refinement passes")


def _nearest_integer(x: float, what: str) -> int:
    """x rounded; a ConvergenceError naming ``what`` unless x is within 0.125 of it."""
    if abs(x - round(x)) > 0.125:
        raise ConvergenceError(f"{what} of {x:.3f} is not near an integer")
    return round(x)


def count_zeros_contour(
    f: Callable[[complex], complex],
    radius: float,
    min_samples: int = 256,
) -> int:
    """Zeros inside |z| < radius of f, which is even and real on the real axis.

    f is analytic, or has the phase of an analytic function, which hides a
    zero on the arc from the proximity test.  Being even and real on
    the real axis, f has f(-conj z) = conj f(z), so its phase change over the
    first-quadrant arc theta in [0, pi/2] is a quarter of its winding over
    the whole circle, and the zero count (half the winding) is that change
    divided by pi.  ``min_samples`` counts samples per full turn; the arc
    gets a quarter of them.  Any step with a phase jump above pi/2 is
    bisected until none is left.  Raises :class:`ProximityError` when |f|
    on the arc dips below 1e-9 of its maximum, and
    :class:`ConvergenceError` if f is not real at both ends of the arc,
    refinement exceeds 1e6 samples or 40 passes, or the phase change is
    not near a whole number of half-turns.
    """
    if not (radius > 0 and math.isfinite(radius)):
        raise DomainError(f"radius must be positive, got {radius!r}")
    if min_samples < 64:
        raise DomainError("min_samples must be at least 64")
    vals, change = _track_phase(lambda t: f(radius * cmath.exp(1j * t)),
                                np.linspace(0.0, PI / 2, int(min_samples) // 4 + 1), "contour")
    # Even and real on the real axis makes f real on the imaginary axis too,
    # so f must be real at both ends of the arc.  A zero within rounding of
    # an end (too close for the proximity test when |f| is normalized)
    # also fails here.
    if any(abs(v.imag) > 1e-6 * abs(v) for v in (vals[0], vals[-1])):
        raise ConvergenceError(
            "f is not real at both ends of the quarter arc: it is not even and "
            "real on the real axis, or a zero sits at an end; move the radius"
        )
    return _nearest_integer(change / PI, "phase change in half-turns")
