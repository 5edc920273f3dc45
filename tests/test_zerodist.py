"""Zero-distribution layer: curve, scan, files, residual, predictor."""

from __future__ import annotations

import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from zetaprod import zerodist
from zetaprod.errors import (
    ClusterError,
    ConvergenceError,
    DomainError,
    InsufficientZerosError,
    ProximityError,
    RangeError,
)
from zetaprod.specfun import log_xi_asymptotic
from zetaprod.zerodist import (
    A_ROOT,
    ZeroList,
    crossing_count,
    find_zeros,
    n_of_t,
    omega_stats,
    phi_smooth,
    predict_zeros,
    residual,
    residual_report,
    solve_a,
    t5,
    t5_constant,
)

# ------------------------------------------------------- smooth curve


def test_solve_a_value():
    a = solve_a()
    assert abs(a - 9.6769) < 1e-3
    # 9.676906787165866847 is 2 pi exp(1 + W0(-7/(8e))) to 20 digits (mpmath)
    assert abs(a - 9.676906787165866847) <= 2e-15
    assert abs(phi_smooth(a)) < 1e-11
    assert A_ROOT == a


def test_t5_constant_value():
    a = solve_a()
    assert abs(t5_constant(a) - 0.8582) < 1e-3
    assert abs(t5_constant(a) - 0.858206067010) < 1e-9
    with pytest.raises(DomainError):
        t5_constant(-1.0)


def test_phi_smooth_values():
    assert abs(phi_smooth(50.0) - 9.4227817898) < 1e-8
    assert abs(phi_smooth(100.0) - 29.0023435873) < 1e-8
    assert n_of_t(70.0) == phi_smooth(70.0)
    with pytest.raises(DomainError):
        phi_smooth(0.0)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, np.array([20.0, math.nan])],
                         ids=["nan", "inf", "-inf", "array-with-nan"])
def test_phi_smooth_refuses_non_finite(k):
    with pytest.raises(DomainError, match="finite"):
        phi_smooth(k)


def test_phi_smooth_array():
    ks = np.array([20.0, 50.0, 100.0])
    out = phi_smooth(ks)
    assert out.shape == (3,)
    assert abs(out[1] - 9.4227817898) < 1e-8


def test_t5_is_t4_plus_constant():
    # T4 is the asymptotic main sum of ln xi_z without its (1/4) ln(pi/2)
    z = 30 + 4j
    terms = log_xi_asymptotic(z)
    assert t5(z) == terms.t1 + terms.t2 + terms.t3 + t5_constant(A_ROOT)


# ---------------------------------------------------------- zero list


def test_zero_list_validation():
    with pytest.raises(DomainError):
        ZeroList(np.array([15.0, 14.0]), t_max=20.0)
    with pytest.raises(DomainError):
        ZeroList(np.array([5.0]), t_max=20.0)  # below the curve root
    with pytest.raises(DomainError):
        ZeroList(np.array([15.0]), t_max=15.0)  # not strictly below t_max


def test_zero_list_roundtrip(tmp_path):
    zeros = ZeroList(np.array([14.134725, 21.022040]), t_max=25.0)
    path = tmp_path / "zeros.txt"
    zeros.write(path)
    back = ZeroList.read(path)
    assert back.t_max == 25.0
    np.testing.assert_allclose(back.ordinates, zeros.ordinates, atol=1e-10)


def test_zero_list_read_priority(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("# t_max=30\n14.134725\n21.022040\n", encoding="utf-8")
    assert ZeroList.read(path).t_max == 30.0
    assert ZeroList.read(path, t_max=22.0).t_max == 22.0


def test_zero_list_read_without_header(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("14.134725\n", encoding="utf-8")
    zeros = ZeroList.read(path)
    assert zeros.t_max == np.nextafter(14.134725, math.inf)


def test_bundled_zero_list():
    zeros = ZeroList.bundled()
    assert zeros.t_max == 100.0
    assert len(zeros) == 29
    assert abs(zeros.ordinates[0] - 14.134725) < 1e-6
    assert zeros.count_below(50.0) == 10


# ---------------------------------------------------------- zero scan


def test_find_zeros_matches_literature(scan100, literature_zeros):
    zeros, _ = scan100
    assert len(zeros) == 29
    np.testing.assert_allclose(
        zeros.ordinates, literature_zeros.ordinates, atol=5e-7
    )


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "data" / "zeros_t1000.txt"


def _count_evaluations(monkeypatch) -> dict[str, int]:
    """Count xi evaluations on the line (scan plus refinement) and zeta
    samples of the zero count N(t_max) that find_zeros makes from here on."""
    calls = {"line": 0, "count": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(zerodist, "_log_xi_terms", counted("line", zerodist._log_xi_terms))
    monkeypatch.setattr(zerodist, "zeta", counted("count", zerodist.zeta))
    return calls


def test_find_zeros_matches_reference_to_1000(monkeypatch):
    expected = ZeroList.read(REFERENCE).ordinates
    calls = _count_evaluations(monkeypatch)
    zeros = find_zeros(1000.0)
    assert len(zeros) == len(expected) == 649
    assert float(np.max(np.abs(zeros.ordinates - expected))) <= 1e-11
    assert calls["line"] <= 2738


def test_find_zeros_matches_reference_at_seeded_heights():
    # 334.65, 482.03, 825.87 and 990.25 need two rounds of halving to close
    # the scan; 21.27, 54.97, 94.11 and 231.34 close on the grid itself.
    # 323 lies 2.6e-4 above k_152, where phi = 152: a grid that kept that
    # level would start with a last interval below the width floor.
    reference = ZeroList.read(REFERENCE).ordinates
    for t_max in [*np.random.default_rng(1969).uniform(14.5, 1000.0, 8), 323.0]:
        zeros = find_zeros(float(t_max))
        expected = reference[reference < t_max]
        assert len(zeros) == len(expected), t_max
        assert float(np.max(np.abs(zeros.ordinates - expected))) <= 1e-11, t_max


def test_find_zeros_evaluation_counts(monkeypatch):
    # deterministic cost gate for find_zeros(100): 30 grid points and 92
    # refinement steps for 29 zeros on the line, 17 samples for N(t_max)
    calls = _count_evaluations(monkeypatch)
    assert len(find_zeros(100.0)) == 29
    assert calls["line"] <= 122
    assert calls["count"] <= 17


def test_newton_stop_rule_bound():
    # After a Newton step d the error is about C d^2, C = |g''/2g'| at the
    # zero; refinement stops after |d| <= 1e-6.  g' and g'' come from the
    # analytic slope 1e-3 either side of each zero: at the zero itself
    # zeta'/zeta is rounding noise.  Worst: 3.09, at 630.474.
    h = 1e-3
    worst = 0.0
    for k in ZeroList.read(REFERENCE).ordinates.tolist():
        d_minus = zerodist._line_value(k - h)[1]
        d_plus = zerodist._line_value(k + h)[1]
        worst = max(worst, abs((d_plus - d_minus) / (2 * h) / (d_plus + d_minus)))
    assert worst * 1e-6 ** 2 <= 1e-11


def test_refinement_bisects_a_step_that_leaves_the_bracket():
    # With these end slopes the cubic start lands near 11.13, where g has a
    # maximum and Newton's step aims at -9.9, far outside [10, 17.85].
    # Taken, it would head for another zero; bisected, it keeps 14.13.
    lo, hi = 10.0, 17.85
    g_lo, g_hi = zerodist._line_value(lo)[0], zerodist._line_value(hi)[0]
    start = zerodist._newton_start(lo, g_lo, 0.0, hi, g_hi, 500.0)
    g, dg = zerodist._line_value(start)
    assert not lo < start - g / dg < hi
    root = zerodist._bisect_sign_change(lo, g_lo, 0.0, hi, g_hi, 500.0)
    assert abs(root - ZeroList.read(REFERENCE).ordinates[0]) <= 1e-11


def test_find_zeros_cluster_error(monkeypatch):
    # below 500 the grid alone falls short of N(t_max); with a width floor
    # above the grid spacing (about 1.4 there) the first halving is refused
    monkeypatch.setattr(zerodist, "_MIN_WIDTH", 2.0)
    with pytest.raises(ClusterError, match="halved down to"):
        find_zeros(500.0)


def test_find_zeros_count_mismatch_is_a_cluster_error(monkeypatch):
    original = zerodist._zero_count
    monkeypatch.setattr(zerodist, "_zero_count", lambda t: original(t) + 2)
    with pytest.raises(ClusterError):
        find_zeros(100.0)


def test_find_zeros_t_max_on_a_zero():
    # N(t) is undefined at an ordinate: the count refuses a t_max within
    # rounding of the first zero, and takes one 0.025 above it
    with pytest.raises(ProximityError):
        find_zeros(14.134725141734695)
    assert len(find_zeros(14.16)) == 1


def test_zero_count_matches_reference():
    reference = ZeroList.read(REFERENCE)
    heights = np.random.default_rng(20091).uniform(14.0, 1000.0, 400)
    for t in heights:
        assert zerodist._zero_count(float(t)) == reference.count_below(float(t)), t
    assert zerodist._zero_count(1000.0) == 649


def test_theta_against_mpmath():
    heights = np.random.default_rng(7).uniform(0.5, 1000.0, 200)
    worst = max(abs(zerodist._theta(float(t)) - float(mp.siegeltheta(float(t))))
                for t in heights)
    assert worst <= 1e-11


def test_find_zeros_domain():
    with pytest.raises(DomainError):
        find_zeros(12.0)
    with pytest.raises(RangeError):
        find_zeros(1500.0)


# ------------------------------------------------------------ residual


def test_residual_at_50_with_bundled(literature_zeros):
    sample = residual(50.0, literature_zeros)
    assert abs(sample.residual - (-0.0464)) <= 0.05
    assert sample.tail_estimate < 0.1


def test_residual_requires_margin(literature_zeros):
    with pytest.raises(InsufficientZerosError):
        residual(60.0, literature_zeros)  # needs t_max >= 120
    with pytest.raises(DomainError):
        residual(20.0, literature_zeros)  # z must be >= 50


def test_residual_report_constant(literature_zeros):
    report = residual_report([50.0], literature_zeros)
    assert abs(report.constant_derived - (-0.046388122742)) < 1e-9
    assert report.constant_paper == 0.0464
    z, value, estimate = report.samples[0]
    assert z == 50.0
    assert abs(value - report.constant_derived) <= estimate


# ------------------------------------------------- omega and predictor


def test_omega_stats_mean_decays(literature_zeros):
    stats = omega_stats(literature_zeros)
    assert abs(stats.final_mean) < 0.01
    assert stats.sign_changes() >= 10
    # mean over [a, 50] is already small, and it shrinks further by 100
    ks = stats.running_mean[:, 0]
    at50 = abs(stats.running_mean[np.searchsorted(ks, 50.0), 1])
    assert at50 < 0.05
    assert abs(stats.final_mean) < at50 + 0.01


def test_omega_stats_domain(literature_zeros):
    with pytest.raises(DomainError):
        omega_stats(literature_zeros, grid_step=0.5)
    empty = ZeroList(np.array([]), t_max=20.0)
    with pytest.raises(DomainError):
        omega_stats(empty)
    with pytest.raises(DomainError, match="rows"):
        omega_stats(literature_zeros, grid_step=1e-9)  # refused before allocating


def test_predictor_deviations(literature_zeros):
    predicted = predict_zeros(10)
    actual = literature_zeros.ordinates[:10]
    devs = np.abs(actual - predicted)
    assert float(devs.mean()) <= 1.0
    assert float(devs.max()) <= 2.0
    assert abs(float(devs.mean()) - 0.5123) < 1e-3
    assert abs(float(devs.max()) - 0.8400) < 1e-3


def test_predictor_staircase_interleaves(literature_zeros):
    predicted = predict_zeros(40)
    ks = np.arange(A_ROOT + 0.05, 100.0, 0.05)
    actual_count = literature_zeros.count_below(ks)
    predicted_count = np.searchsorted(predicted, ks, side="right")
    assert int(np.max(np.abs(actual_count - predicted_count))) <= 2


def test_predict_zeros_domain():
    with pytest.raises(DomainError):
        predict_zeros(0)


def _phi_inverse_mp(level) -> float:
    with mp.workdps(30):
        c = (mp.mpf(level) - mp.mpf(7) / 8) / mp.e
        return float(2 * mp.pi * mp.exp(1 + mp.lambertw(c).real))


def test_predict_zeros_matches_mpmath_to_640():
    levels = np.arange(1, 641) - 0.5
    predicted = predict_zeros(640)
    reference = np.array([_phi_inverse_mp(level) for level in levels])
    assert float(np.max(np.abs(predicted - reference))) <= 1e-12
    assert float(np.max(np.abs(phi_smooth(predicted) - levels))) <= 1e-12


def test_predict_zeros_does_not_evaluate_phi(monkeypatch):
    def no_phi(k):
        raise AssertionError("predict_zeros must not search the curve")

    monkeypatch.setattr(zerodist, "phi_smooth", no_phi)
    predicted = predict_zeros(640)
    assert predicted.shape == (640,)
    # each level is solved on its own, so asking for fewer gives the same values
    assert np.array_equal(predict_zeros(25), predicted[:25])


def test_lambert_w0_matches_mpmath():
    lo = -7 / (8 * math.e)  # c at level 0 (the root a), the lowest any caller uses
    cs = np.concatenate(([lo, 0.0], np.linspace(lo, 1.0, 301), np.geomspace(1.0, 1e7, 301)))
    w = zerodist._lambert_w0(cs)
    with mp.workdps(30):
        reference = np.array([float(mp.lambertw(float(c)).real) for c in cs])
    assert np.all(np.abs(w - reference) <= 1e-15 * np.abs(reference))
    # an entry does not depend on the others it is solved with
    for i in (0, 1, 300, 450):
        assert zerodist._lambert_w0(cs[i]) == w[i]


@pytest.mark.parametrize("c", [math.nan, -0.5])
def test_lambert_w0_raises_without_a_real_root(c):
    # no real W0 below -1/e, so the iteration cannot settle
    with pytest.raises(ConvergenceError):
        zerodist._lambert_w0(c)


# ------------------------------------------------------ crossing count


def test_crossing_count_within_bound():
    rng = np.random.default_rng(20260701)
    for _ in range(20):
        k_a = 10.0 + 60 * rng.random()
        k_b = k_a + 3 * rng.random()
        res = crossing_count(k_a, k_b)
        assert abs(res.exact - res.midpoint) <= res.bound


def test_crossing_count_wide_interval():
    res = crossing_count(14.0, 50.0)
    assert abs(res.exact - res.midpoint) <= res.bound
    assert res.exact == pytest.approx(phi_smooth(50.0) - phi_smooth(14.0))


def test_crossing_count_domain():
    with pytest.raises(DomainError):
        crossing_count(5.0, 10.0)  # k_a below the root
    with pytest.raises(DomainError):
        crossing_count(20.0, 15.0)
    with pytest.raises(DomainError, match="k_b must be"):
        crossing_count(20.0, math.nan)


def test_crossing_count_nan_fails_its_check(monkeypatch):
    # a NaN compares false both ways, so only a check written to pass can fail on it
    monkeypatch.setattr(zerodist, "phi_smooth", lambda k: math.nan)
    with pytest.raises(ConvergenceError, match="midpoint shortcut"):
        crossing_count(20.0, 25.0)
