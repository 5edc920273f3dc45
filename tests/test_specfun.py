"""Special-function layer against mpmath and frozen reference values."""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from zetaprod.errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    RangeError,
)
from zetaprod import specfun
from zetaprod.specfun import (
    _EM_COEF,
    _EM_LINE,
    _log_xi,
    _log_xi_terms,
    ln_zeta_bound_check,
    log_gamma,
    log_xi_asymptotic,
    log_xi_z,
    stirling_w,
    xi_s,
    xi_z,
    zeta,
)
from zetaprod.zerodist import t5

mp.mp.dps = 30

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "data" / "zeros_t1000.txt"


def rel(x: complex, ref: complex) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)


# ---------------------------------------------------------------- zeta


ZETA_REFERENCE = [
    (2.0, 1.64493406684822644 + 0j),
    (3.5, 1.12673386731705665 + 0j),
    (1.5 + 4j, 0.74662620290893886 + 0.0271311386772378145j),
    (0.5 + 14j, 0.0222411426099935892 - 0.103258123266450058j),
    (-0.5, -0.207886224977354566 + 0j),
    (-1.5, -0.0254852018898330359 + 0j),
    (-3.7 + 2j, -0.0118723748539780297 + 0.0382947403164011568j),
    (0.25 - 6j, 0.813571607952186615 - 0.381744776923013086j),
]


@pytest.mark.parametrize("s,ref", ZETA_REFERENCE)
def test_zeta_reference_values(s, ref):
    assert rel(zeta(s), ref) < 1e-10


def test_zeta_real_on_the_real_axis():
    # each recurrence log of a negative real in the gamma factor adds a
    # rounded i*pi to the reflection's exponent; zeta is real there
    for x in (0.25, 0.0, -0.5, -3.0, -7.5, -170.5):
        val = zeta(x)
        assert val.imag == 0.0, x
        assert rel(val.real, float(mp.zeta(x))) <= 1e-12, x


def test_zeta_trivial_zeros_exact():
    for k in range(1, 7):
        assert zeta(-2.0 * k) == 0j
    # 5e-324 off -2, zeta is -1.5e-325i, which rounds to 0
    assert zeta(complex(-2.0, 5e-324)) == 0j
    assert zeta(-1e300) == 0j


def test_zeta_overflows_at_the_smallest_offset_from_a_far_trivial_zero(monkeypatch):
    # 5e-324 i zeta'(-2n) is 2.2e306i at -444 but beyond the largest double at
    # -446, which _at_trivial_zero refuses itself
    seen = []
    at_zero = specfun._at_trivial_zero
    monkeypatch.setattr(specfun, "_at_trivial_zero", lambda s: seen.append(s) or at_zero(s))
    with pytest.raises(RangeError, match="largest double"):
        zeta(complex(-446.0, 5e-324))
    assert seen == [complex(-446.0, 5e-324)]
    assert 2.1e306 < zeta(complex(-444.0, 5e-324)).imag < 2.2e306


@pytest.mark.parametrize("two_n", [444, 100, 20, 2])
def test_zeta_smallest_offset_from_a_trivial_zero(two_n):
    # s / 2 rounds the offset 5e-324 away, so s looks like the zero itself;
    # zeta there is 5e-324 i zeta'(-2n): 2.2e306i at -444, 6.5e-322i at -20
    # (a subnormal, compared once both are rounded) and 0 at -2
    s = complex(-two_n, 5e-324)
    with mp.workdps(50):
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
    assert abs(zeta(s) - ref) <= 1e-12 * abs(ref)


def test_zeta_near_trivial_zeros():
    # relative accuracy where a rounded sin(pi s / 2) would cancel to noise
    for n in (1, 2, 5, 10):
        for d in (1e-4, 1e-8, 1e-12):
            for s in (complex(-2 * n + d), complex(-2 * n - d), complex(-2 * n, d)):
                ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
                assert rel(zeta(s), ref) <= 1e-12, s


def test_zeta_pole_and_range():
    with pytest.raises(PoleError):
        zeta(1.0)
    with pytest.raises(RangeError):
        zeta(0.5 + 1500j)
    # |zeta| overflows a double left of re s = -444, but at the trivial zeros
    for s in (-443.99, -450.5, complex(-446.0, 1e-323), -1e300 + 1j):
        with pytest.raises(RangeError):
            zeta(s)


def test_zeta_random_right_plane():
    rng = np.random.default_rng(20260501)
    for _ in range(25):
        s = complex(0.5 + 9.5 * rng.random(), 200.0 * (rng.random() - 0.5))
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        assert rel(zeta(s), ref) < 1e-10


def test_zeta_random_left_plane():
    rng = np.random.default_rng(20260502)
    for _ in range(25):
        s = complex(-8.0 + 8.4 * rng.random(), 60.0 * (rng.random() - 0.5))
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        assert rel(zeta(s), ref) < 1e-10


# The random mpmath tests above stay near the real axis; these reach the top of
# the supported range, |Im s| <= 1000, at the same tolerances.


def test_zeta_random_right_plane_to_im_max():
    rng = np.random.default_rng(20260601)
    for _ in range(60):
        s = complex(0.5 + 9.5 * rng.random(), 2000.0 * (rng.random() - 0.5))
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        assert rel(zeta(s), ref) < 1e-10


def test_zeta_random_left_plane_to_im_max():
    rng = np.random.default_rng(20260602)
    for _ in range(60):
        s = complex(-8.0 + 8.4 * rng.random(), 2000.0 * (rng.random() - 0.5))
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        assert rel(zeta(s), ref) < 1e-10


def test_zeta_far_left_until_overflow():
    rng = np.random.default_rng(20261018)
    for _ in range(60):
        s = complex(-450.0 + 440.0 * rng.random(), 2000.0 * (rng.random() - 0.5))
        ref = mp.zeta(mp.mpc(s.real, s.imag))
        if abs(ref) < 1e307:
            assert rel(zeta(s), complex(ref)) < 1e-10
        elif abs(ref) > sys.float_info.max:
            with pytest.raises(RangeError):
                zeta(s)


def test_em_coefficients_are_bernoulli_over_factorial():
    # the scalar table to B_30, and the array kernel's to B_80, whose terms
    # past B_30 come from zeta(2k) (within 3.2e-15)
    assert len(_EM_LINE) == 40 and _EM_LINE[:15].tolist() == [coef for coef, _ in _EM_COEF]
    for k, coef in enumerate(_EM_LINE.tolist(), start=1):
        num, den = mp.bernfrac(2 * k)
        exact = Fraction(int(num), int(den) * math.factorial(2 * k))
        assert k > len(_EM_COEF) or _EM_COEF[k - 1][1] == 2 * k
        assert abs(Fraction(coef) - exact) <= Fraction(1, 10 ** 14) * abs(exact), 2 * k


@pytest.mark.parametrize("table,call", [
    ("_EM_COEF", lambda: zeta(complex(0.5, 500.0))),
    ("_STIRLING", lambda: log_gamma(complex(3.0, 20.0))),
    ("_EM_LINE", lambda: _log_xi_terms(np.array([0.5 + 500j]))),
    ("_STIRLING", lambda: _log_xi_terms(np.array([0.5 + 500j]))),
], ids=["zeta", "log_gamma", "line-zeta", "line-log_gamma"])
def test_series_fail_when_their_table_runs_out(monkeypatch, table, call):
    # two coefficients leave a term far above 1e-16 of the total
    monkeypatch.setattr(specfun, table, getattr(specfun, table)[:2])
    with pytest.raises(ConvergenceError, match="ran past"):
        call()


def test_series_end_within_their_tables_at_the_zeros_of_zeta():
    # At a zero the total is rounding, below 1.9e-12 here, and no term
    # falls below 1e-16 of it, so zeta's series run to the end of their
    # tables; the last term is then below 1e-16 (3.2e-17 at worst, in the
    # scalar table just below t = 1000), the rounding of the head's leading
    # 1, and no ConvergenceError is raised.  mpmath checks every 32nd zero.
    zeros = np.loadtxt(REFERENCE, comments="#")
    assert len(zeros) == 649
    values = [zeta(complex(0.5, t)) for t in zeros.tolist()]
    for t in zeros.tolist():
        _log_xi(complex(0.5, t))
    for block in np.split(zeros, range(64, 649, 64)):
        _log_xi_terms(0.5 + 1j * block)
    for i in range(0, 649, 32):
        assert abs(values[i] - complex(mp.zeta(mp.mpc(0.5, zeros[i])))) <= 2e-12, zeros[i]


def test_zeta_near_pole_laurent():
    rng = np.random.default_rng(20260503)
    for _ in range(20):
        eps = 0.018 * (rng.random() - 0.5) + 0.018j * (rng.random() - 0.5)
        if abs(eps) < 1e-6:
            continue
        s = 1 + eps
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        assert rel(zeta(s), ref) < 1e-10


# ----------------------------------------------------------- stirling


def test_stirling_w_is_binet_remainder():
    # w(a) = (a - 1/2) ln a - a + ln(2 pi)/2 - log_gamma(a)
    rng = np.random.default_rng(20260505)
    for _ in range(20):
        a = complex(0.4 + 6 * rng.random(), 8 * (rng.random() - 0.5))
        main = (a - 0.5) * cmath.log(a) - a + 0.5 * math.log(2 * math.pi)
        ref = complex(main - mp.loggamma(mp.mpc(a.real, a.imag)))
        assert abs(stirling_w(a) - ref) < 1e-13 * (1 + abs(ref))


def test_stirling_w_near_zero():
    # re(a) close to 0 is inside the documented domain re(a) > 0
    for a in (0.01, 0.05 + 0.3j):
        main = (a - 0.5) * cmath.log(a) - a + 0.5 * math.log(2 * math.pi)
        ref = complex(main - mp.loggamma(mp.mpc(a.real, a.imag)))
        assert abs(stirling_w(a) - ref) < 1e-13 * (1 + abs(ref))


def test_stirling_w_sign_and_magnitude():
    assert abs(stirling_w(4.75).real + 0.0175182586732269359) < 1e-13
    for a in (1.0, 2.0, 5.0, 20.0):
        w = stirling_w(a)
        assert w.imag == 0 or abs(w.imag) < 1e-16
        assert w.real < 0
        assert abs(w.real + 1.0 / (12 * a)) < 1.0 / (90 * a ** 3)


def test_stirling_w_domain():
    with pytest.raises(DomainError):
        stirling_w(-1.0)
    with pytest.raises(DomainError):
        stirling_w(0.0)


# --------------------------------------------------------- log gamma


LOG_GAMMA_REFERENCE = [
    (4.2, 2.04855563696059004 + 0j),
    (0.5 + 30j, -46.2049512706422258 + 72.0373104288057932j),
    (1.25 + 500j, -779.818268634176989 + 2608.48166728956826j),
]


@pytest.mark.parametrize("a,ref", LOG_GAMMA_REFERENCE)
def test_log_gamma_reference(a, ref):
    # the last point checks the unwound branch, far up the imaginary axis
    assert abs(log_gamma(a) - ref) < 1e-10 * (1 + abs(ref))


def test_log_gamma_random_vs_mpmath():
    rng = np.random.default_rng(20260506)
    for _ in range(25):
        a = complex(0.05 + 8 * rng.random(), 100 * (rng.random() - 0.5))
        ref = complex(mp.loggamma(mp.mpc(a.real, a.imag)))
        assert abs(log_gamma(a) - ref) < 1e-11 * (1 + abs(ref))


def test_log_gamma_random_vs_mpmath_to_im_600():
    # the shift stops once |a| >= 12, so points on both sides of |a| = 12
    rng = np.random.default_rng(20260603)
    points = [complex(0.05 + 11.95 * rng.random(), 1200.0 * (rng.random() - 0.5))
              for _ in range(60)]
    points += [11.99, 12.01, 3 + 11.6j, 3 + 11.65j, 0.05 - 11.99j, 0.05 - 12.01j]
    for a in points:
        ref = complex(mp.loggamma(mp.mpc(a.real, a.imag)))
        assert abs(log_gamma(a) - ref) < 1e-11 * (1 + abs(ref))


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(-2.5)
    with pytest.raises(DomainError):
        log_gamma(0.0)


# ----------------------------------------------------------------- xi


def mp_xi(s: complex):
    s = mp.mpc(s)
    return 0.5 * s * (s - 1) * mp.power(mp.pi, -s / 2) * mp.gamma(s / 2) * mp.zeta(s)


def test_xi_reference_values():
    assert rel(xi_s(0.5), 0.49712077818831411) < 1e-12
    assert rel(xi_s(2.0), 0.523598775598298873) < 1e-12
    ref = 0.40339539941867925 - 0.0113545700075866096j
    assert rel(xi_s(0.3 + 3j), ref) < 1e-12
    ref_z = 0.592137070621640093 + 0.0815676335779633623j
    assert rel(xi_z(3 + 1j), ref_z) < 1e-12


def test_xi_center_values_exact():
    assert xi_s(0.0) == 0.5 + 0j
    assert xi_s(1.0) == 0.5 + 0j


def test_xi_functional_symmetry_exact():
    rng = np.random.default_rng(20260507)
    for _ in range(30):
        s = complex(4 * (rng.random() - 0.5), 50 * (rng.random() - 0.5))
        assert xi_s(s) == xi_s(1 - s)


def test_xi_z_even_exact():
    rng = np.random.default_rng(20260508)
    for _ in range(30):
        z = complex(4 * (rng.random() - 0.5), 50 * (rng.random() - 0.5))
        assert xi_z(z) == xi_z(-z)


def test_xi_random_vs_mpmath():
    rng = np.random.default_rng(20260509)
    for _ in range(20):
        s = complex(5 * (rng.random() - 0.5), 60 * (rng.random() - 0.5))
        ref = complex(mp_xi(s))
        assert rel(xi_s(s), ref) < 1e-11


def test_xi_random_vs_mpmath_to_im_850():
    # above |Im s| of about 900, xi_s falls below the smallest normal double;
    # log_xi_z carries the oracle on to |Im s| = 1000
    rng = np.random.default_rng(20260604)
    for _ in range(60):
        s = complex(5 * (rng.random() - 0.5), 1700.0 * (rng.random() - 0.5))
        ref = complex(mp_xi(s))
        assert rel(xi_s(s), ref) < 1e-11


def test_xi_accuracy_across_underflow():
    # while |xi| is a normal double (t <= 910 on the line) the error is a
    # fraction of |xi / zeta|, which is relative accuracy away from the zeros;
    # below 2.2e-308 (t above about 919) the value is subnormal or 0 and only
    # its absolute error is small
    rng = np.random.default_rng(20261018)
    with mp.workdps(40):
        for t in rng.uniform(10.0, 910.0, 15):
            s = complex(0.5, t)
            envelope = abs(mp.gamma(s / 2 + 1) * mp.power(mp.pi, -s / 2) * (s - 1))
            assert abs(xi_s(s) - complex(mp_xi(s))) <= 1e-11 * float(envelope), t
        for t in [920.0, 1000.0, *rng.uniform(920.0, 1000.0, 10)]:
            ref = complex(mp_xi(complex(0.5, t)))
            assert abs(ref) < sys.float_info.min
            assert abs(xi_z(complex(0.0, t)) - ref) <= 1e-319, t


def test_xi_real_on_imaginary_axis():
    rng = np.random.default_rng(20260510)
    ts = 0.5 + 99.0 * rng.random(40)
    for t in ts:
        val = xi_z(complex(0.0, t))
        assert abs(val.imag) <= 1e-11 * abs(val)


def test_xi_range():
    with pytest.raises(RangeError):
        xi_s(0.5 + 1200j)


def test_xi_refuses_overflow():
    # xi is finite exactly where its log form is below log(largest double):
    # on the real axis up to z = 432.59
    log_max = math.log(sys.float_info.max)
    for x in np.arange(400.0, 461.0):
        for z in (x, x + 30j, -x):
            if _log_xi(complex(z) + 0.5).real > log_max:
                with pytest.raises(RangeError, match="largest double"):
                    xi_z(z)
            else:
                assert cmath.isfinite(xi_z(z))
    assert xi_z(432.0).real > 1e307
    for z in (1000.0, 1e300, -1e300):
        with pytest.raises(RangeError):
            xi_z(z)
        with pytest.raises(RangeError):
            xi_s(z + 0.5)


NON_FINITE = (complex(math.nan, 0.0), complex(math.inf, 1.0), complex(-math.inf, 1.0),
              complex(1.0, math.inf), complex(1.0, -math.inf))


@pytest.mark.parametrize("x", NON_FINITE, ids=repr)
@pytest.mark.parametrize("fn", [zeta, xi_s, xi_z, log_gamma, stirling_w, log_xi_z,
                                log_xi_asymptotic, ln_zeta_bound_check, t5],
                         ids=lambda fn: fn.__name__)
def test_non_finite_argument_refused(fn, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy RuntimeWarning on the way
        with pytest.raises(DomainError, match="finite"):
            fn(x)


# --------------------------------------------------------- log xi_z


def test_log_xi_terms_range():
    with pytest.raises(RangeError):
        _log_xi(0.5 + 1200j)
    with pytest.raises(RangeError):
        _log_xi_terms(np.array([0.5 + 1200j]))


def test_line_kernel_head_agrees_with_the_scalar_path_at_every_cutoff():
    # One block per point, so each point sets the cutoff N = max(20, t/4 + 10):
    # t = 4 (N - 10) gives N, and just below it N - 1, where the head is
    # thinnest, for every N from 20 to 260.  The kernel builds the head from
    # prime powers in dyadic blocks of n; the scalar _log_xi takes exp of
    # every term of a head of t/2 + 10.  Both agree to about 1e-12 of log xi,
    # the phase up to a multiple of 2 pi: at worst 2.4e-10 against |log xi| =
    # 1,600 at t = 776, near a zero of zeta (|zeta| = 8e-4), or 1.5e-13.
    ts = [4.0 * (n - 10) - below for n in range(20, 261) for below in (0.0, 1e-9)]
    for t in ts:
        got = complex(_log_xi_terms(np.array([0.5 + 1j * t]))[0][0])
        ref = _log_xi(complex(0.5, t))
        turns = round((got.imag - ref.imag) / math.tau)
        assert abs(got - ref - 1j * math.tau * turns) <= 1e-12 * abs(ref), t


def test_line_kernel_takes_exp_only_at_the_primes(monkeypatch):
    # A composite read as prime would still give the right value, through
    # exp, so only the work shows a wrong sieve: _SPF[n] must be the
    # smallest prime factor of n, and a head cut at N = 257 (t = 988) takes
    # exp at its 54 primes below 257, besides the two boundary powers N^(-s)
    # and N^(-s-1), at each of the 64 points.
    spf = specfun._SPF.tolist()
    assert len(spf) == 260
    for n in range(2, len(spf)):
        p = spf[n]
        assert n % p == 0 and all(p % q for q in range(2, p)), n
        assert all(n % q for q in range(2, p)), n
    entries = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x):
            entries.append(np.size(x))
            return np.exp(x)

    monkeypatch.setattr(specfun, "np", CountingNumpy())
    _log_xi_terms(0.5 + 1j * np.linspace(925.0, 988.0, 64))
    assert sorted(entries) == [64, 64, 54 * 64]


def test_line_kernel_cuts_each_head_chunk_at_its_own_height(monkeypatch):
    # One call of 128 points whose two 64-point head chunks lie far apart:
    # each chunk's cutoff is N = max(20, t/4 + 10) at its own largest t, 27
    # below t = 70 (9 primes) and 257 below t = 988 (54 primes), so exp sees
    # one table per chunk besides the two boundary powers at all 128 points.
    # Each point agrees with its own one-point call, the phase up to 2 pi.
    ts = np.concatenate((np.linspace(10.0, 70.0, 64), np.linspace(925.0, 988.0, 64)))
    for t, got in zip(ts.tolist(), _log_xi_terms(0.5 + 1j * ts)[0].tolist()):
        alone = complex(_log_xi_terms(np.array([0.5 + 1j * t]))[0][0])
        turns = round((got.imag - alone.imag) / math.tau)
        assert abs(got - alone - 1j * math.tau * turns) <= 1e-12 * abs(alone), t
    entries = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x):
            entries.append(np.size(x))
            return np.exp(x)

    monkeypatch.setattr(specfun, "np", CountingNumpy())
    _log_xi_terms(0.5 + 1j * ts)
    assert sorted(entries) == [128, 128, 9 * 64, 54 * 64]


def mp_log_xi_slope(s: complex) -> complex:
    s = mp.mpc(s.real, s.imag)
    return complex(mp.digamma(s / 2 + 1) / 2 - mp.log(mp.pi) / 2 + 1 / (s - 1)
                   + mp.zeta(s, derivative=1) / mp.zeta(s))


def log_xi_points() -> list[complex]:
    """Seeded points for log xi and its slope: the critical line, either side
    of it up to |Im s| = 1000, reflected points left of it, and the Laurent
    disc |s - 1| <= 0.02."""
    rng = np.random.default_rng(20261019)
    points = [complex(x, y) for x in (0.5, 0.7, 1.5, 3.0) for y in rng.uniform(-1000, 1000, 6)]
    points += [complex(x, y) for x in (0.3, -0.5, -3.0) for y in rng.uniform(-1000, 1000, 3)]
    points += [1 + 0.02 * cmath.rect(r, a) for r, a in rng.uniform((0, -math.pi), (1, math.pi), (8, 2))]
    return points + [0.25, 2.0, 1.019, complex(0.5, 14.1357)]


def test_log_xi_slope_against_mpmath():
    # the array kernel at the points on the critical line, in one block with
    # low ones, where |s/2 + 2| < 12 (below t = 23.6) and the digamma sum of
    # the shift, ten steps for every point of a block that starts at t = 10,
    # carries more of the slope
    line = np.array([s for s in log_xi_points() if s.real == 0.5]
                    + [complex(0.5, t) for t in (10, 12, 16, 20, 23.5, 23.7, 24)])
    assert len(line) == 14
    slopes = _log_xi_terms(line)[1]
    worst = 0.0
    for s, slope in zip(line.tolist(), slopes.tolist()):
        ref = mp_log_xi_slope(s)
        worst = max(worst, abs(slope - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-10


def _off_by_turns(x: complex, ref: complex) -> float:
    """|x - ref| with the imaginary part taken modulo 2 pi."""
    d = x - ref
    return abs(complex(d.real, math.remainder(d.imag, 2 * math.pi)))


def test_line_kernel_stirling_cut_is_exact_where_it_switches(monkeypatch):
    # _log_xi_terms shifts s/2 + 1 by the recurrence m times and sums K
    # Stirling columns, both set by the call's smallest |t|: m falls from 10
    # at t = 10 to 0 above t = 24.38, and K from 7 to 3 by t = 1000.  One-point
    # calls from 10 to 40 pass every change of m, and a point's own cut is
    # checked against m = 10 and K = 7, the cut of a call that adds t = 10, at
    # heights to 1000; that call's head has the same cutoff N.  Where log xi
    # is large its phase is not reduced: near t = 990 it is about 3,000, one
    # ulp 4.5e-13, so kernel is checked against kernel to 1e-15 of |log xi|.
    widths = set()
    series = specfun._series

    def recorded(tot, terms, dtot, dterms):
        widths.add(terms.shape[1])
        return series(tot, terms, dtot, dterms)

    monkeypatch.setattr(specfun, "_series", recorded)
    for t in (np.arange(200, 801) / 20).tolist():
        value = _log_xi_terms(np.array([complex(0.5, t)]))[0][0]
        assert _off_by_turns(value, _log_xi(complex(0.5, t))) <= 1e-12, t
    assert widths == {6, 7, len(_EM_LINE)}
    for t in np.geomspace(10.0, 1000.0, 200).tolist():
        value = _log_xi_terms(np.array([complex(0.5, t)]))[0][0]
        with_low = _log_xi_terms(np.array([complex(0.5, t), 0.5 + 10j]))[0][0]
        assert _off_by_turns(value, with_low) <= 1e-12 + 1e-15 * abs(value), t
    assert widths == {3, 4, 5, 6, 7, len(_EM_LINE)}
    # one 128-point call over t in [10, 30] and [950, 990] against its points alone
    ts = np.concatenate((np.linspace(10.0, 30.0, 64), np.linspace(950.0, 990.0, 64)))
    values = _log_xi_terms(0.5 + 1j * ts)[0]
    for t, value in zip(ts.tolist(), values.tolist()):
        alone = _log_xi_terms(np.array([complex(0.5, t)]))[0][0]
        assert _off_by_turns(value, alone) <= 1e-12 + 1e-15 * abs(alone), t


def test_log_xi_against_mpmath_up_to_2_pi_i():
    # log |xi| relative; the phase up to a multiple of 2 pi, as documented
    for s in log_xi_points():
        m = mp.mpc(s.real, s.imag)
        ref = complex(mp.log(mp.gamma(m / 2 + 1) * mp.power(mp.pi, -m / 2) * (m - 1) * mp.zeta(m)))
        got = _log_xi(s)
        assert abs(got.real - ref.real) <= 1e-12 * abs(ref.real), s
        turns = (got.imag - ref.imag) / math.tau
        assert abs(turns - round(turns)) * math.tau <= 1e-10, s


def test_log_xi_z_exponentiates_to_xi():
    rng = np.random.default_rng(20260511)
    for _ in range(20):
        z = complex(0.6 + 30 * rng.random(), 40 * (rng.random() - 0.5))
        assert rel(cmath.exp(log_xi_z(z)), xi_z(z)) < 1e-12


def test_log_xi_z_center_matches_reference():
    # continuity down to the boundary: at z slightly above 1/2 the direct
    # log of xi agrees with the composed form
    z = 0.5001
    assert abs(log_xi_z(z) - cmath.log(xi_z(z))) < 1e-9


def test_log_xi_z_random_vs_mpmath_to_im_max():
    # an absolute error d in log xi is a relative error d in xi, so this is
    # the xi_s tolerance; the branch of mpmath's log is principal, ours analytic
    rng = np.random.default_rng(20260605)
    for _ in range(60):
        z = complex(0.55 + 9.45 * rng.random(), 2000.0 * (rng.random() - 0.5))
        ref = complex(mp.log(mp_xi(z + 0.5)))
        d = log_xi_z(z) - ref
        assert abs(complex(d.real, math.remainder(d.imag, 2 * math.pi))) < 1e-11


def test_log_xi_z_matches_the_composed_form():
    # log_xi_z takes log (s - 1) zeta(s) as one log; the form it replaced summed
    # log (s - 1) and log zeta(s).  Right of the line no 2 pi i turn parts them
    # (|arg (s - 1) + arg zeta(s)| < pi), and outside the Laurent branch within
    # 0.02 of s = 1 both end on the same Euler-Maclaurin zeta
    rng = np.random.default_rng(20261021)
    re_z = 0.5 + 10.0 ** rng.uniform(-9.0, 1.0, 2000)
    for z in re_z + 1j * rng.uniform(-1000.0, 1000.0, 2000):
        s = z + 0.5
        ref = specfun._log_gamma_factor(s) + cmath.log(s - 1) + cmath.log(zeta(s))
        got = log_xi_z(z)
        assert round((got - ref).imag / (2 * math.pi)) == 0, z
        assert abs(got - ref) <= 1e-15 * abs(ref), z


def test_log_xi_z_domain():
    with pytest.raises(DomainError):
        log_xi_z(0.5)
    with pytest.raises(DomainError):
        log_xi_z(-2.0)
    with pytest.raises(RangeError):
        log_xi_z(0.6 + 1200j)


def test_log_xi_asymptotic_within_bound():
    for z in (30.0, 50 + 5j, 120.0, 11.0):
        terms = log_xi_asymptotic(z)
        dev = abs(log_xi_z(z) - terms.main_sum())
        assert dev <= terms.remainder_bound


def test_log_xi_asymptotic_domain():
    with pytest.raises(DomainError):
        log_xi_asymptotic(10.0)


def test_ln_zeta_bound_random():
    rng = np.random.default_rng(20260512)
    for _ in range(20):
        z = complex(10.1 + 60 * rng.random(), 30 * (rng.random() - 0.5))
        assert ln_zeta_bound_check(z)
    with pytest.raises(DomainError):
        ln_zeta_bound_check(9.0)
