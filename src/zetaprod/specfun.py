"""Special functions built around the completed (symmetrized) zeta function.

Everything here reduces to three ingredients: an Euler-Maclaurin evaluation
of zeta to the right of the critical line (whose Dirichlet head an array of
points on the line builds from prime powers), a log-gamma that shifts its
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

from .errors import ConvergenceError, DomainError, PoleError, RangeError

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

# n's smallest prime factor below the line kernel's largest cutoff (n itself at 0, 1 and primes).
_SPF = np.arange(int(IM_MAX / 4) + 10)
for _p in range(math.isqrt(len(_SPF) - 1), 1, -1):  # downwards: the smallest p writes last
    _SPF[_p * _p::_p] = _p

# The line kernel's head plan, which each call cuts at its N by searchsorted.
# A head table holds n^(-s) in row _ROW[n]: the composites below N ascending
# from the front, the primes below N descending from the back, so no row moves
# with N.  Composite m is the product of the rows _FACTORS of p = _SPF[m] and
# m / p <= m / 2, one dyadic block [2^k, 2^(k+1)) of m at a time.
_n = np.arange(2, len(_SPF))
_PRIMES, _COMPOSITES = _n[_SPF[_n] == _n], _n[_SPF[_n] != _n]
_ROW = np.zeros(len(_SPF), dtype=int)
_ROW[_COMPOSITES], _ROW[_PRIMES] = np.arange(len(_COMPOSITES)), -1 - np.arange(len(_PRIMES))
_FACTORS = _ROW[_SPF[_COMPOSITES]], _ROW[_COMPOSITES // _SPF[_COMPOSITES]]
_BLOCK_ENDS = np.searchsorted(_COMPOSITES, 2 ** np.arange(2, len(_SPF).bit_length() + 1))
_HEAD_LOG = _LOG_N[np.concatenate((_COMPOSITES, _PRIMES[::-1])) - 1]
# Points per head table, and so per cutoff N: at most 257 x 64 x 16 B = 263 KB.
_HEAD_POINTS = 64

# (B_2k / (2k)!, 2k) for the Bernoulli corrections of _zeta_em, with (2k)! built
# up in floats one factor pair at a time, which fixes how the coefficients round.
_EM_COEF, _fact = [], 2.0
for _k, _b in enumerate(_BERNOULLI, start=1):
    _EM_COEF.append((_b / _fact, 2 * _k))
    _fact *= (2 * _k + 1) * (2 * _k + 2)

# B_2k / (2k)! for k = 1 .. 40, for the array kernel's shorter head: those of
# _EM_COEF, then (-1)^(k+1) 2 zeta(2k) / (2 pi)^2k with zeta(2k) to four terms.
_EM_LINE = np.array([c for c, _ in _EM_COEF] + [
    (-1) ** (k + 1) * 2 * (1 + 2.0 ** (-2 * k) + 3.0 ** (-2 * k) + 4.0 ** (-2 * k)) / TWO_PI ** (2 * k)
    for k in range(len(_EM_COEF) + 1, 41)])

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


def _zeta_em(s: complex) -> complex:
    """Euler-Maclaurin zeta with cutoff N grown with |Im s|.

    Head sum_{n<N} n^(-s), boundary terms at N, then the Bernoulli
    corrections (B_2k / (2k)!) s(s+1)...(s+2k-2) N^(-s-2k+1), with the
    coefficients from _EM_COEF, until one falls below 1e-16 of the running
    total.  Callers ensure re(s) >= 1/2, s != 1 and |Im s| <= IM_MAX, which
    keeps N within _LOG_N.
    """
    big_n = max(20, int(abs(s.imag) / 2) + 10)
    tot = complex(np.exp(-s * _LOG_N[: big_n - 1]).sum())
    tot += big_n ** (1 - s) / (s - 1) + 0.5 * big_n ** (-s)
    poch = complex(s)
    bpow = big_n ** (-s - 1)
    n_sq = big_n * big_n
    for coef, two_k in _EM_COEF:
        term = coef * poch * bpow
        tot += term
        if abs(term) < 1e-16 * abs(tot):
            break
        poch *= (s + two_k - 1) * (s + two_k)
        bpow /= n_sq
    else:  # out of _EM_COEF: see _series
        if not abs(term) < 1e-16 * max(abs(tot), 1.0):
            raise ConvergenceError(f"Euler-Maclaurin zeta at s = {s:g} ran past B_30")
    return tot


def _s1_zeta(w: complex) -> complex:
    """The entire function (w - 1) * zeta(w), finite at w = 1.  Callers pass
    re(w) >= 1/2: zeta, xi_s and _log_xi reflect first."""
    u = w - 1
    if abs(u) <= 0.02:
        g0, g1, g2, g3, g4 = _STIELTJES
        return 1 + u * (g0 + u * (-g1 + u * (g2 / 2 + u * (-g3 / 6 + u * (g4 / 24)))))
    return u * _zeta_em(w)


def zeta(s: complex) -> complex:
    """Riemann zeta on the cut-free plane, |Im s| <= 1000.

    Euler-Maclaurin summation for re(s) >= 1/2; left of that, reflection
    through xi(s) = xi(1 - s) in log form.  Relative accuracy is 1e-10 or
    better up to the trivial zeros, where the value is exactly 0 (and
    i y zeta'(-2n) at -2n + iy when s / 2 rounds y away).  Raises
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
        return _at_trivial_zero(s)
    # |zeta| overflows left of re s = -444, so spare the shift loop past -450
    log_head = _log_gamma_factor(1 - s) - _log_gamma_factor(s) if s.real >= -450.0 else math.inf
    if log_head.real > _LOG_MAX:
        raise RangeError(f"|zeta| exceeds the largest double at s = {s:g}")
    val = cmath.exp(log_head) * (_s1_zeta(1 - s) / (s - 1))
    return complex(val.real) if s.imag == 0 else val


def _at_trivial_zero(s: complex) -> complex:
    """zeta at s = -2n + iy with y = 0 or so small that s / 2 rounds it away.

    0 at the zero itself, else to first order i y zeta'(-2n), with
    zeta'(-2n) = (-1)^n (2n)! zeta(2n + 1) / (2 (2 pi)^2n) summed in log
    form: it overflows a double from 2n = 260 on, and y zeta'(-2n) does
    from 2n = 446, where this raises :class:`RangeError`.
    """
    if s.imag == 0:
        return 0j
    two_n = -s.real
    log_abs = math.inf if two_n > 450 else (
        math.lgamma(two_n + 1) + math.log(_zeta_em(complex(two_n + 1)).real)
        - math.log(2.0) - two_n * LN_2PI + math.log(abs(s.imag)))
    if log_abs > _LOG_MAX:
        raise RangeError(f"|zeta| exceeds the largest double at s = {s:g}")
    return complex(0.0, math.copysign(math.exp(log_abs), s.imag if two_n % 4 == 0 else -s.imag))


def _log_gamma_any(a: complex) -> complex:
    # Log-gamma off the poles 0, -1, -2, ...: shift by the recurrence until
    # re(a) >= 2 and |a| >= 12, then sum the Stirling series, which reaches
    # 1e-16 within 9 terms there.  The shift logs are summed one by one, so
    # near a pole they keep relative accuracy and for re(a) > 0 the imaginary
    # part is the analytic (unwound) one, not the principal branch.
    shift = 0j
    while a.real < 2.0 or abs(a) < 12.0:
        shift += cmath.log(a)
        a = a + 1
    tot = (a - 0.5) * cmath.log(a) - a + 0.5 * LN_2PI
    inv = 1 / a
    inv2 = inv * inv
    for c in _STIRLING:
        term = c * inv
        tot += term
        if abs(term) < 1e-16 * abs(tot):
            break
        inv *= inv2
    else:  # out of _STIRLING: see _series
        if not abs(term) < 1e-16 * max(abs(tot), 1.0):
            raise ConvergenceError(f"Stirling series at a = {a:g} ran past B_30")
    return tot - shift


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
    log_xi_z and _log_xi stay relative.  Raises :class:`RangeError`
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


def _log_xi(s: complex) -> complex:
    """log xi_s(s) up to a multiple of 2*pi*i, with no under- or overflow: the
    gamma factor plus log (w - 1) zeta(w), w = s reflected to re(w) >= 1/2.
    Raises :class:`RangeError` beyond |Im s| <= 1000, like :func:`xi_s`."""
    if abs(s.imag) > IM_MAX:
        raise RangeError(f"log xi supported for |Im s| <= {IM_MAX:g}, got {s.imag:g}")
    w = s if s.real >= 0.5 else 1 - s
    return _log_gamma_factor(w) + cmath.log(_s1_zeta(w))


def _accumulate(ufunc, first, rest, width: int) -> np.ndarray:
    """ufunc.accumulate along each row of [first | rest], with first a column of
    points and rest broadcast to the other width - 1 columns: the running
    products or sums of a series' terms, one row per point."""
    cols = np.empty((len(first), width), dtype=complex)
    cols[:, 0] = first
    cols[:, 1:] = rest
    return ufunc.accumulate(cols, axis=1, out=cols)


def _series(tot, terms, dtot, dterms) -> tuple[np.ndarray, np.ndarray]:
    """tot plus every column of terms, and dtot plus every column of dterms.
    A last term not below 1e-16 of the larger of 1 and its total means the
    table ran out first: :class:`ConvergenceError`.  The floor 1, zeta's
    leading term, lets a series end at a zero of zeta, whose total is rounding."""
    total = tot + terms.sum(axis=1)
    if not np.all(np.abs(terms[:, -1]) < 1e-16 * np.maximum(np.abs(total), 1.0)):
        raise ConvergenceError(f"a series on the critical line ran past its {terms.shape[1]} terms")
    return total, dtot + dterms.sum(axis=1)


def _head(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cutoff N = max(20, |t|/4 + 10) at the largest |t| of s, and sum n^(-s)
    over 0 < n < N with its slope in s, at each point, from one table of n^(-s)
    laid out by _ROW: exp at the primes, one product at each composite."""
    big_n = max(20, int(np.max(np.abs(s.imag)) / 4) + 10)
    n_comp, n_prime = np.searchsorted(_COMPOSITES, big_n), np.searchsorted(_PRIMES, big_n)
    head = np.empty((n_comp + n_prime, len(s)), dtype=complex)
    head[n_comp:] = np.exp(np.multiply.outer(-_HEAD_LOG[-n_prime:], s))
    for begin, end in zip(_BLOCK_ENDS, np.minimum(_BLOCK_ENDS[1:], n_comp)):
        if begin < end:
            np.multiply(head[_FACTORS[0][begin:end]], head[_FACTORS[1][begin:end]], out=head[begin:end])
    # not a matrix product, which goes to BLAS, whose threads spin on a busy CPU
    log_rows = np.concatenate((_HEAD_LOG[:n_comp], _HEAD_LOG[-n_prime:]))
    slope = -np.einsum("n,nj->j", log_rows, head.view(float)).view(complex)
    return np.full(len(s), big_n), 1 + head.sum(axis=0), slope


def _log_xi_terms(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (log xi_s, d log xi_s / ds) at each point of the 1-D array s,
    all on the critical line, as two arrays from one vectorised pass.

    The log agrees with :func:`_log_xi` to about 1e-12, up to a multiple of
    2 pi i.  The slope is psi(s/2 + 1)/2 - (ln pi)/2 + 1/(s - 1) + zeta'/zeta,
    from the same Stirling and Euler-Maclaurin passes; near a zero of xi it
    is dominated by rounding in zeta'/zeta.  Used for the sign scan and root
    refinement, where xi itself underflows.  Raises :class:`RangeError`
    beyond |Im s| <= 1000, like :func:`xi_s`.

    The Dirichlet head n^(-s) is summed _HEAD_POINTS points at a time by
    :func:`_head`, each table cut at the N of its own largest |t|: a larger N
    only shrinks a point's Euler-Maclaurin remainder.  n^(-s) is completely
    multiplicative, so only its prime rows take exp (54 below N = 257;
    Borwein, Bradley and Crandall, J. Comput. Appl. Math. 121 (2000)).  The
    Stirling and Bernoulli terms are (points x K) arrays over the whole call,
    summed whole; the Stirling shift and K come from the call's smallest |t|.

    The cutoff is N = |t|/4 + 10 with terms to B_80 (_EM_LINE), not |t|/2 + 10
    with B_30 as in :func:`_zeta_em`: near |t| = 1000 the shorter head takes
    about 40 terms, a few more columns of one array here but more rounds of a
    Python loop there, which made the scalar path slower.
    """
    if float(np.max(np.abs(s.imag))) > IM_MAX:
        raise RangeError(f"_log_xi_terms supported for |Im s| <= {IM_MAX:g}")
    if np.any(s.real != 0.5):
        raise DomainError("_log_xi_terms takes points on the critical line only")
    # log-gamma and digamma at s/2 + 1 by the Stirling series at a = 5/4 + m + it/2, with m the
    # fewest recurrence steps to |a| >= 12.25 at the smallest |t| (the scalar rule asks 12): 11 at
    # t = 0, none above |t| = 24.38; one log of their product (< 1e30) is off by 2 pi i turns only
    t_half = float(np.min(np.abs(s.imag))) / 2
    m = sum(abs(complex(1.25 + j, t_half)) < 12.25 for j in range(11))
    steps = s[:, None] / 2 + np.arange(1, m + 1)
    shift, dshift = np.log(steps.prod(axis=1)), (1 / steps).sum(axis=1)
    a = s / 2 + 1 + m
    log_a, rec = np.log(a), 1 / a
    # log-gamma's terms c_k a^(1 - 2k) and digamma's -(2k - 1) c_k a^(-2k) through the first k
    # below 1e-16 at the smallest |a|: 7 at 12.25, 4 at 100, and 1 (refused by _series) if none is
    a_min = abs(complex(1.25 + m, t_half))
    k = next((j for j, c in enumerate(_STIRLING, 1) if abs(c) * a_min ** (1 - 2 * j) < 1e-16), 1)
    terms = np.array(_STIRLING[:k]) * _accumulate(np.multiply, rec, (rec * rec)[:, None], k)
    log_gamma, psi = _series((a - 0.5) * log_a - a + 0.5 * LN_2PI, terms,
                             log_a - 0.5 * rec, -(np.arange(1, 2 * k, 2) * terms * rec[:, None]))
    # Euler-Maclaurin zeta and zeta' (see _zeta_em), the head _HEAD_POINTS points at a time
    parts = [_head(s[i:i + _HEAD_POINTS]) for i in range(0, len(s), _HEAD_POINTS)]
    cut, tot, dtot = (np.concatenate(column) for column in zip(*parts))
    log_n = np.log(cut)
    half = 0.5 * np.exp(-log_n * s)
    edge = 2 * cut * half / (s - 1)
    tot += edge + half
    dtot -= edge * (log_n + 1 / (s - 1)) + log_n * half
    # the rises (s + 2k - 1)(s + 2k) = w^2 - 1/4, w = s + 2k - 1/2, between
    # terms k and k + 1 of the Pochhammer symbol s(s + 1)...(s + 2k - 2), each
    # with its term 2w / rise of the log-derivative; over N^2, their running
    # product from s N^(-s-1) carries each term's power of N as well
    w = s[:, None] + np.arange(1.5, 2 * len(_EM_LINE) - 1, 2)
    rise = w * w - 0.25
    dlog = _accumulate(np.add, 1 / s - log_n, 2 * w / rise, len(_EM_LINE))
    rise /= (cut * cut)[:, None]
    terms = _accumulate(np.multiply, s * np.exp(-log_n * (s + 1)), rise, len(_EM_LINE))
    terms *= _EM_LINE
    tot, dtot = _series(tot, terms, dtot, terms * dlog)
    u = s - 1
    value = (log_gamma - shift - (s / 2) * LN_PI) + np.log(u * tot)
    slope = 0.5 * (psi - dshift - LN_PI) + 1 / u + dtot / tot
    return value, slope


def log_xi_z(z: complex) -> complex:
    """Logarithm of xi_z for re(z) > 1/2 and |Im z| <= 1000: _log_xi(z + 1/2).

    exp(log_xi_z(z)) reproduces xi_z(z); the branch is the analytic one
    inherited from :func:`log_gamma`, which is what the asymptotic
    expansion matches against.
    """
    z = _finite(z, "log_xi_z")
    if z.real <= 0.5:
        raise DomainError("log_xi_z requires re(z) > 1/2")
    return _log_xi(z + 0.5)


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
    z = _finite(z, "log_xi_asymptotic")
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
    z = _finite(z, "ln_zeta_bound_check")
    if z.real <= 10.0:
        raise DomainError("ln_zeta_bound_check requires re(z) > 10")
    return abs(cmath.log(zeta(z + 0.5))) <= 20.0 / (19.0 * z.real)
