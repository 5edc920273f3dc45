"""Special functions built around the completed (symmetrized) zeta function.

Everything here reduces to three ingredients: an Euler-Maclaurin evaluation
of zeta to the right of the critical line, a log-gamma that shifts its
argument by the recurrence until |a| >= 12 and then sums the Bernoulli
Stirling series, and the regularized product (s - 1) * zeta(s) that removes
the pole at s = 1.  Left of the line zeta, like xi, reflects through xi(s) =
xi(1 - s), relatively accurate up to the trivial zeros; xi is exposed in ``s``
and in ``z = s - 1/2``, which centers its zeros on the imaginary axis.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, RangeError

PI = math.pi
TWO_PI = 2.0 * math.pi
LN_PI = math.log(math.pi)
LN_2PI = math.log(2.0 * math.pi)

#: Largest |Im s| accepted by :func:`zeta` and the xi evaluators.
IM_MAX = 1000.0

#: Largest log |xi| that xi_s returns as a finite double.
_LOG_MAX = math.log(sys.float_info.max)

# B_2 .. B_30
_BERNOULLI = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
    -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
    -236364091 / 2730, 8553103 / 6, -23749461029 / 870,
    8615841276005 / 14322,
)

# Stirling series coefficients B_2k / (2k (2k - 1)) of log-gamma.
_STIRLING = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, start=1))

# log n for the Dirichlet head of _zeta_em: as long as its cutoff at |Im s| = IM_MAX.
_LOG_N = np.log(np.arange(1, int(IM_MAX / 2) + 10, dtype=float))

# Stieltjes constants gamma_0 .. gamma_4 for the Laurent expansion at s = 1.
_STIELTJES = (
    0.5772156649015329,
    -0.07281584548367672,
    -0.009690363192872318,
    0.002053834420303346,
    0.0023253700654673,
)


def _finite(x: complex, name: str) -> complex:
    """x as a complex, once it is finite in both parts."""
    x = complex(x)
    if not cmath.isfinite(x):
        raise DomainError(f"{name} requires a finite argument, got {x!r}")
    return x


def _zeta_em(s: complex, slope: bool = False):
    """Euler-Maclaurin zeta with cutoff N grown with |Im s|; with slope, the
    pair (zeta(s), zeta'(s)).

    Head sum_{n<N} n^(-s), boundary terms at N, then Bernoulli corrections
    until one falls below 1e-16 of the running total.  The derivative
    differentiates the same terms one by one and stops with them; its head
    reuses the powers n^(-s).  Callers ensure re(s) >= 1/2, s != 1 and
    |Im s| <= IM_MAX, which keeps N within _LOG_N.
    """
    big_n = max(20, int(abs(s.imag) / 2) + 10)
    powers = np.exp(-s * _LOG_N[: big_n - 1])
    tot = complex(np.sum(powers))
    edge = big_n ** (1 - s) / (s - 1)
    half = 0.5 * big_n ** (-s)
    tot += edge + half
    if slope:
        log_n = math.log(big_n)
        dtot = -complex(_LOG_N[: big_n - 1] @ powers) - edge * (log_n + 1 / (s - 1)) - log_n * half
        dlog = 1 / s - log_n  # log-derivative of the Bernoulli term
    poch = complex(s)
    bpow = big_n ** (-s - 1)
    fact = 2.0
    for k, b2k in enumerate(_BERNOULLI, start=1):
        term = (b2k / fact) * poch * bpow
        tot += term
        if slope:
            dtot += term * dlog
        if abs(term) < 1e-16 * abs(tot):
            break
        rise = (s + 2 * k - 1) * (s + 2 * k)
        poch *= rise
        bpow /= big_n * big_n
        fact *= (2 * k + 1) * (2 * k + 2)
        if slope:
            dlog += (2 * s + 4 * k - 1) / rise
    return (tot, dtot) if slope else tot


def _s1_zeta(w: complex, slope: bool = False):
    """The entire function (w - 1) * zeta(w), finite at w = 1; with slope, the
    pair of it and its log-derivative.

    Callers pass re(w) >= 1/2: zeta, xi_s and _log_xi_terms reflect first.
    """
    u = w - 1
    if abs(u) <= 0.02:
        g0, g1, g2, g3, g4 = _STIELTJES
        val = 1 + u * (g0 + u * (-g1 + u * (g2 / 2 + u * (-g3 / 6 + u * (g4 / 24)))))
        if slope:
            return val, (g0 + u * (-2 * g1 + u * (1.5 * g2 + u * (-2 * g3 / 3 + u * (5 * g4 / 24))))) / val
        return val
    if slope:
        z, dz = _zeta_em(w, slope=True)
        return u * z, 1 / u + dz / z
    return u * _zeta_em(w)


def zeta(s: complex) -> complex:
    """Riemann zeta on the cut-free plane, |Im s| <= 1000.

    Euler-Maclaurin summation for re(s) >= 1/2; left of that, reflection
    through xi(s) = xi(1 - s) in log form.  Relative accuracy is 1e-10 or
    better up to the trivial zeros, where the value is exactly 0.  Raises
    :class:`PoleError` at s = 1 and :class:`RangeError` beyond |Im s| = 1000
    or where |zeta| overflows (left of re s = -444 but at the trivial zeros).
    Real s gives a real value.
    """
    s = _finite(s, "zeta")
    if abs(s.imag) > IM_MAX:
        raise RangeError(f"zeta supported for |Im s| <= {IM_MAX:g}, got {s.imag:g}")
    if s == 1:
        raise PoleError("zeta has a pole at s = 1")
    if s.real >= 0.5:
        return _zeta_em(s)
    # trivial zeros (and 5e-324 off one, which s / 2 rounds back onto it)
    if s.real < 0.0 and (s / 2).imag == 0.0 and (s.real / 2.0).is_integer():
        return 0j
    # |zeta| overflows left of re s = -444, so spare the shift loop past -450
    log_head = _log_gamma_factor(1 - s) - _log_gamma_factor(s) if s.real >= -450.0 else math.inf
    if log_head.real > _LOG_MAX:
        raise RangeError(f"|zeta| exceeds the largest double at s = {s:g}")
    val = cmath.exp(log_head) * (_s1_zeta(1 - s) / (s - 1))
    return complex(val.real) if s.imag == 0 else val


def _log_gamma_any(a: complex, slope: bool = False):
    # Log-gamma off the poles 0, -1, -2, ...: shift by the recurrence until
    # re(a) >= 2 and |a| >= 12, then sum the Stirling series, which reaches
    # 1e-16 within 9 terms there.  The shift logs are summed one by one, so
    # near a pole they keep relative accuracy and for re(a) > 0 the imaginary
    # part is the analytic (unwound) one, not the principal branch.  With
    # slope, the pair (log-gamma, digamma): the same series differentiated
    # term by term, less the shift's sum of 1/a.
    shift = 0j
    dshift = 0j
    while a.real < 2.0 or abs(a) < 12.0:
        shift += cmath.log(a)
        if slope:
            dshift += 1 / a
        a = a + 1
    log_a = cmath.log(a)
    tot = (a - 0.5) * log_a - a + 0.5 * LN_2PI
    inv = 1 / a
    inv2 = inv * inv
    if slope:
        rec = inv
        dtot = log_a - 0.5 * rec
        odd = 1  # d/da of c a^(1 - 2k) is -(2k - 1) c a^(-2k)
    for c in _STIRLING:
        term = c * inv
        tot += term
        if slope:
            dtot -= odd * term * rec
            odd += 2
        if abs(term) < 1e-16 * abs(tot):
            break
        inv *= inv2
    return (tot - shift, dtot - dshift) if slope else tot - shift


def _log_gamma_factor(w: complex) -> complex:
    """log gamma(w/2 + 1) - (w/2) log pi: xi(w) = exp(this) (w - 1) zeta(w)."""
    return _log_gamma_any(w / 2 + 1) - (w / 2) * LN_PI


def log_gamma(a: complex) -> complex:
    """Log-gamma for re(a) > 0 by the shifted Stirling series.

    The error is within about 1e-14 (1 + |log_gamma(a)|); the imaginary part
    is the analytic continuation from the real axis, not reduced mod 2 pi.
    """
    a = _finite(a, "log_gamma")
    if a.real <= 0.0:
        raise DomainError("log_gamma requires re(a) > 0")
    return _log_gamma_any(a)


def stirling_w(a: complex) -> complex:
    """Stirling remainder w(a) = (a - 1/2) log a - a + log(2 pi)/2 - log_gamma(a).

    Taken as that difference, so it holds for every re(a) > 0 with the
    absolute accuracy of log_gamma.  On the positive real axis w is negative
    and behaves like -1/(12a).
    """
    a = _finite(a, "stirling_w")
    if a.real <= 0.0:
        raise DomainError("stirling_w requires re(a) > 0")
    return (a - 0.5) * cmath.log(a) - a + 0.5 * LN_2PI - _log_gamma_any(a)


def xi_s(s: complex) -> complex:
    """The symmetrized function gamma(s/2 + 1) pi^(-s/2) (s - 1) zeta(s).

    Entire; invariant under s -> 1 - s; equals 1/2 at s = 0 and s = 1.
    Arguments with re(s) < 1/2 are reflected before evaluation and values on
    the critical line are returned real, so the symmetry holds exactly.
    Where |xi| < 2.2e-308, the smallest normal double (|Im s| above about
    919 on the line), it is accurate in absolute terms only, to 1e-319;
    log_xi_z and _log_xi_terms stay relative.  Raises :class:`RangeError`
    where |xi| exceeds the largest double (real s beyond about 433).
    """
    s = _finite(s, "xi_s")
    if abs(s.imag) > IM_MAX:
        raise RangeError(f"xi_s supported for |Im s| <= {IM_MAX:g}")
    w = s if s.real >= 0.5 else 1 - s
    if w == 1:
        return 0.5 + 0j  # gamma(3/2) pi^(-1/2) * 1, which rounding would miss
    log_head = _log_gamma_factor(w)
    # beyond _LOG_MAX here re(s) is above 400, where (s - 1) zeta(s) is
    # about s - 1 and only adds to |xi|
    val = cmath.exp(log_head) * _s1_zeta(w) if log_head.real <= _LOG_MAX else math.inf
    if cmath.isinf(val):
        raise RangeError(f"|xi| exceeds the largest double at s = {s:g}")
    return complex(val.real) if w.real == 0.5 else val


def xi_z(z: complex) -> complex:
    """xi_z(z) = xi_s(z + 1/2); like xi_s, absolute accuracy only where |xi| < 2.2e-308.

    Exactly even (z and -z are both evaluated at the one with re >= 0), real on
    both axes, and zero on the imaginary axis at the zeta zero ordinates.
    """
    return xi_s((z if complex(z).real >= 0 else -z) + 0.5)


def _log_xi_terms(s: complex) -> tuple[complex, complex]:
    """The pair (log xi_s, d log xi_s / ds), with no under- or overflow.

    The log is fixed up to a multiple of 2*pi*i: its imaginary part carries
    the phase, its real part is log |xi_s|.  The slope is
    psi(s/2 + 1)/2 - (ln pi)/2 + 1/(s - 1) + zeta'/zeta, from the same
    Stirling and Euler-Maclaurin passes, so it costs about a quarter more than
    the log alone; left of the critical line it is -L'(1 - s).  Near a zero
    of xi the slope is dominated by rounding in zeta'/zeta.  Used for the
    sign scan and root refinement high on the critical line, where xi itself
    underflows.  Raises :class:`RangeError` beyond |Im s| <= 1000, like
    :func:`xi_s`.
    """
    if abs(s.imag) > IM_MAX:
        raise RangeError(f"_log_xi_terms supported for |Im s| <= {IM_MAX:g}")
    w = s if s.real >= 0.5 else 1 - s
    log_gamma, psi = _log_gamma_any(w / 2 + 1, slope=True)
    s1_zeta, s1_slope = _s1_zeta(w, slope=True)
    value = (log_gamma - (w / 2) * LN_PI) + cmath.log(s1_zeta)
    slope = 0.5 * (psi - LN_PI) + s1_slope
    return value, (slope if s.real >= 0.5 else -slope)


def log_xi_z(z: complex) -> complex:
    """Logarithm of xi_z for re(z) > 1/2, assembled term by term.

    exp(log_xi_z(z)) reproduces xi_z(z); the branch is the analytic one
    inherited from :func:`log_gamma`, which is what the asymptotic
    expansion matches against.
    """
    z = _finite(z, "log_xi_z")
    if z.real <= 0.5:
        raise DomainError("log_xi_z requires re(z) > 1/2")
    s = z + 0.5
    return _log_gamma_factor(s) + cmath.log(s - 1) + cmath.log(zeta(s))


@dataclass(frozen=True)
class XiAsymptoticTerms:
    """Leading terms of log xi_z(z) for large z in the right half-plane."""

    t1: complex  #: (z/2) log(z / 2 pi)
    t2: complex  #: -z/2
    t3: complex  #: (7/4) log z
    constant: float  #: (1/4) log(pi / 2)
    remainder_bound: float  #: 2 / |z|

    def main_sum(self) -> complex:
        return self.t1 + self.t2 + self.t3 + self.constant


def log_xi_asymptotic(z: complex) -> XiAsymptoticTerms:
    """Asymptotic pieces of log_xi_z, valid for re(z) > 10."""
    z = complex(z)
    if z.real <= 10.0:
        raise DomainError("log_xi_asymptotic requires re(z) > 10")
    return XiAsymptoticTerms(
        t1=(z / 2) * cmath.log(z / TWO_PI),
        t2=-z / 2,
        t3=1.75 * cmath.log(z),
        constant=0.25 * math.log(PI / 2),
        remainder_bound=2.0 / abs(z),
    )


def ln_zeta_bound_check(z: complex) -> bool:
    """Check |log zeta(z + 1/2)| <= 20 / (19 re(z)) for re(z) > 10."""
    z = complex(z)
    if z.real <= 10.0:
        raise DomainError("ln_zeta_bound_check requires re(z) > 10")
    return abs(cmath.log(zeta(z + 0.5))) <= 20.0 / (19.0 * z.real)
