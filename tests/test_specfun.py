"""Special-function layer against mpmath and frozen reference values."""

from __future__ import annotations

import cmath
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from zetaprod.errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    RangeError,
)
from zetaprod.specfun import (
    _log_gamma_factor,
    _log_xi_terms,
    _s1_zeta,
    ln_zeta_bound_check,
    log_gamma,
    log_xi_asymptotic,
    log_xi_z,
    stirling_w,
    xi_s,
    xi_z,
    zeta,
)

mp.mp.dps = 30


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
    # s / 2 rounds the smallest subnormal offset onto the zero itself
    assert zeta(complex(-20.0, 5e-324)) == 0j
    assert zeta(-1e300) == 0j


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
            if _log_xi_terms(complex(z) + 0.5)[0].real > log_max:
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
@pytest.mark.parametrize("fn", [zeta, xi_s, xi_z, log_gamma, stirling_w, log_xi_z],
                         ids=lambda fn: fn.__name__)
def test_non_finite_argument_refused(fn, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy RuntimeWarning on the way
        with pytest.raises(DomainError, match="finite"):
            fn(x)


# --------------------------------------------------------- log xi_z


def test_log_xi_terms_range():
    with pytest.raises(RangeError):
        _log_xi_terms(0.5 + 1200j)


def mp_log_xi_slope(s: complex) -> complex:
    s = mp.mpc(s.real, s.imag)
    return complex(mp.digamma(s / 2 + 1) / 2 - mp.log(mp.pi) / 2 + 1 / (s - 1)
                   + mp.zeta(s, derivative=1) / mp.zeta(s))


def log_xi_points() -> list[complex]:
    """Seeded points for the log xi pair: the critical line, either side of it
    up to |Im s| = 1000, reflected points left of it, and the Laurent disc
    |s - 1| <= 0.02."""
    rng = np.random.default_rng(20261019)
    points = [complex(x, y) for x in (0.5, 0.7, 1.5, 3.0) for y in rng.uniform(-1000, 1000, 6)]
    points += [complex(x, y) for x in (0.3, -0.5, -3.0) for y in rng.uniform(-1000, 1000, 3)]
    points += [1 + 0.02 * cmath.rect(r, a) for r, a in rng.uniform((0, -math.pi), (1, math.pi), (8, 2))]
    return points + [0.25, 2.0, 1.019, complex(0.5, 14.1357)]


def test_log_xi_slope_against_mpmath():
    worst = 0.0
    for s in log_xi_points():
        ref = mp_log_xi_slope(s)
        worst = max(worst, abs(_log_xi_terms(s)[1] - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-10


def test_log_xi_terms_value_is_the_log_alone():
    # the slope pass leaves the log bit for bit as the gamma factor plus log (w - 1) zeta(w)
    for s in log_xi_points():
        w = s if s.real >= 0.5 else 1 - s
        assert _log_xi_terms(s)[0] == _log_gamma_factor(w) + cmath.log(_s1_zeta(w)), s


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


def test_log_xi_z_domain():
    with pytest.raises(DomainError):
        log_xi_z(0.5)
    with pytest.raises(DomainError):
        log_xi_z(-2.0)


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
