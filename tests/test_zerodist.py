"""Zero-distribution layer: curve, scan, files, residual, predictor."""

from __future__ import annotations

import functools
import math
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaprod import specfun, zerodist
from zetaprod.errors import (
    ClusterError,
    ConvergenceError,
    DomainError,
    InsufficientZerosError,
    ProximityError,
    RangeError,
)
from zetaprod.specfun import log_xi_asymptotic
from zetaprod.transforms import StepFunction, transform_step
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


def test_t5_domain():
    # T4's logs are those of log_xi_asymptotic, so t5 takes its domain re(z) > 10
    for z in (0.0, 10.0, -50.0):
        with pytest.raises(DomainError, match="re\\(z\\) > 10"):
            t5(z)


# ---------------------------------------------------------- zero list


def test_zero_list_validation():
    with pytest.raises(DomainError):
        ZeroList(np.array([15.0, 14.0]), t_max=20.0)
    with pytest.raises(DomainError, match="strictly ascending"):
        ZeroList(np.array([20.0, 20.0]), t_max=30.0)  # a repeated ordinate
    with pytest.raises(DomainError, match="one-dimensional"):
        ZeroList(np.ones((2, 2)), t_max=30.0)
    for t_max in (-1.0, math.inf):  # an empty list still needs a finite positive t_max
        with pytest.raises(DomainError, match="t_max must be positive"):
            ZeroList(np.array([]), t_max=t_max)
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


@functools.cache
def _reference_ordinates() -> np.ndarray:
    return ZeroList.read(REFERENCE).ordinates


def _count_evaluations(monkeypatch) -> dict[str, int]:
    """Count the points at which find_zeros evaluates xi on the line from
    here on (scan plus refinement; one call of the kernel takes an array of
    them), the kernel calls that take them, those of the points made
    refining, and the zeta samples of the zero count N(t_max)."""
    calls = {"line": 0, "line_calls": 0, "refine": 0, "count": 0, "count_calls": 0}

    def counted(name, fn):
        def wrapper(s):
            calls[name] += np.size(s)
            calls[name + "_calls"] += 1
            return fn(s)
        return wrapper

    refine = zerodist._bisect_sign_change

    def refine_counted(*bracket):
        before = calls["line"]
        root = refine(*bracket)
        calls["refine"] += calls["line"] - before
        return root

    monkeypatch.setattr(zerodist, "_log_xi_terms", counted("line", zerodist._log_xi_terms))
    monkeypatch.setattr(zerodist, "zeta", counted("count", zerodist.zeta))
    monkeypatch.setattr(zerodist, "_bisect_sign_change", refine_counted)
    return calls


def test_find_zeros_matches_reference_to_1000(monkeypatch):
    # 1,399 of the 2,071 points on the line refine the 649 brackets, and the
    # stop rule leaves at most 2e-12 (see zerodist._bisect_sign_change)
    expected = ZeroList.read(REFERENCE).ordinates
    calls = _count_evaluations(monkeypatch)
    zeros = find_zeros(1000.0)
    assert len(zeros) == len(expected) == 649
    assert float(np.max(np.abs(zeros.ordinates - expected))) <= 2e-12
    assert calls["line"] <= 2071
    assert calls["refine"] <= 2.16 * len(zeros)


def test_find_zeros_matches_reference_at_seeded_heights():
    # 21.27, 54.97, 94.11 and 231.34 close on the grid itself; 482.03,
    # 825.87, 990.25, 751 and 965 fall short on it and close in one round of
    # probing Hermite dips; 334.65 and 751.5 also need a round of halving.
    # 323 lies 2.6e-4 above k_152, where phi = 152: a grid that kept that
    # level would start with a last interval below the width floor.  Just
    # below 751 lie the two closest zeros below 1000, 0.31 apart.
    reference = ZeroList.read(REFERENCE).ordinates
    for t_max in [*np.random.default_rng(1969).uniform(14.5, 1000.0, 8), 323.0, 751.0, 751.5, 965.0]:
        zeros = find_zeros(float(t_max))
        expected = reference[reference < t_max]
        assert len(zeros) == len(expected), t_max
        assert float(np.max(np.abs(zeros.ordinates - expected))) <= 1e-11, t_max


def test_find_zeros_evaluation_counts(monkeypatch):
    # deterministic cost gate, in points on the line: for find_zeros(100),
    # 30 grid points and 76 refinement points for 29 zeros, and 17 samples
    # for N(t_max); for find_zeros(500), 277 scan and 590 refinement points
    calls = _count_evaluations(monkeypatch)
    assert len(find_zeros(100.0)) == 29
    assert calls["line"] <= 106
    assert calls["count"] <= 17
    calls["line"] = 0
    assert len(find_zeros(500.0)) == 269
    assert calls["line"] <= 867


def test_find_zeros_refinement_work(monkeypatch):
    # deterministic cost gate on the lockstep refinement of find_zeros(1000):
    # one _hermite_root call per round, on the brackets still open in it, and
    # a bracket leaves in the round that stops it (1,399 columns, one per
    # refinement point); ceilings that may only tighten
    work = {"calls": 0, "columns": 0}
    hermite_root = zerodist._hermite_root

    def counted(nodes, *bracket):
        work["calls"] += 1
        work["columns"] += nodes.shape[-1]
        return hermite_root(nodes, *bracket)

    monkeypatch.setattr(zerodist, "_hermite_root", counted)
    assert len(find_zeros(1000.0)) == 649
    assert work["calls"] <= 3
    assert work["columns"] <= 1399


def test_find_zeros_kernel_calls(monkeypatch):
    # deterministic cost gate, in calls of the line kernel: one for the 30
    # grid points of find_zeros(100) and one per round of refinement, since
    # every bracket of the scan is refined in one lockstep pass and a round
    # takes more than one call only while over _BLOCK brackets are left
    calls = _count_evaluations(monkeypatch)
    for t_max, ceiling in ((100.0, 4), (500.0, 11), (1000.0, 20)):
        calls["line_calls"] = 0
        find_zeros(t_max)
        assert calls["line_calls"] <= ceiling, t_max


def test_find_zeros_makes_no_runt_kernel_calls(monkeypatch):
    # _line_values splits each batch of n points into ceil(n / _BLOCK) kernel
    # calls within one point of each other, so no call of a few points pays
    # the kernel's fixed cost alone: cut 128 at a time, find_zeros(990.92)
    # made calls of 2, 1 and 1 points
    batches = []
    line_values, kernel = zerodist._line_values, zerodist._log_xi_terms

    def batch(ts):
        batches.append([len(ts)])
        return line_values(ts)

    def call(s):
        batches[-1].append(len(s))
        return kernel(s)

    monkeypatch.setattr(zerodist, "_line_values", batch)
    monkeypatch.setattr(zerodist, "_log_xi_terms", call)
    for t_max in (1000.0, 990.92):
        batches.clear()
        find_zeros(t_max)
        assert sum(len(sizes) - 1 for sizes in batches) <= 20, t_max
        for n, *sizes in batches:
            assert sum(sizes) == n and len(sizes) == -(-n // zerodist._BLOCK), (t_max, n, sizes)
            assert max(sizes) - min(sizes) <= 1, (t_max, sizes)
            assert min(sizes) >= 64 or n < 64, (t_max, sizes)


def _scalar_line_value(t: float) -> float:
    """g from the scalar log xi, _log_xi, one point at a time."""
    log_xi = specfun._log_xi(complex(0.5, t))
    return math.cos(log_xi.imag) * math.exp(log_xi.real + 0.25 * math.pi * t)


def _mp_line_value(t: float) -> tuple[float, float]:
    """(g, dg/dt) from mpmath: xi and xi' at 1/2 + it, scaled by exp(pi t / 4)."""
    with mp.workdps(30):
        s = mp.mpc(0.5, t)
        head = s * (s - 1) / 2 * mp.power(mp.pi, -s / 2) * mp.gamma(s / 2)
        zeta, dzeta = mp.zeta(s), mp.zeta(s, derivative=1)
        dlog_head = 1 / s + 1 / (s - 1) - mp.log(mp.pi) / 2 + mp.digamma(s / 2) / 2
        xi, dxi = head * zeta, head * (zeta * dlog_head + dzeta)
        scale = mp.exp(mp.pi * t / 4)
        return float(mp.re(xi) * scale), float((mp.pi / 4 * mp.re(xi) - mp.im(dxi)) * scale)


def _worst(reference, rows, log_t):
    """Largest error of rows (g, g') against reference.  log xi is
    ill-conditioned near a zero, so g and g' are compared against the local
    size |g| + |g'| / log t of the oscillation, and g' against log t times it."""
    size = np.abs(reference[:, 0]) + np.abs(reference[:, 1]) / log_t
    return max(float(np.max(np.abs(rows[:, 0] - reference[:, 0]) / size)),
               float(np.max(np.abs(rows[:, 1] - reference[:, 1]) / (size * log_t))))


def test_line_values_match_the_scalar_kernel_and_mpmath():
    # 1,024 points: 32 below t = 24, where log-gamma shifts more than once,
    # 928 in order, evaluated in blocks of neighbours, and a last head chunk
    # of 64 spread over [10, 1000] in random order, whose points alone would
    # take cutoffs N from 20 to 260.  _log_xi checks g at each, on _worst's scale
    # with the kernel's own g'; mpmath, about 44 ms a point here, checks g
    # and g' at every 16th.
    rng = np.random.default_rng(20261019)
    ts = np.concatenate((np.linspace(10.0, 24.0, 32), np.sort(rng.uniform(24.0, 1000.0, 928)),
                         rng.permutation(np.geomspace(10.0, 1000.0, 64))))
    rows = zerodist._line_values(ts)
    log_t = np.log(ts)
    assert rows.shape == (1024, 2)
    scalar = np.array([_scalar_line_value(t) for t in ts.tolist()])
    size = np.abs(rows[:, 0]) + np.abs(rows[:, 1]) / log_t
    assert float(np.max(np.abs(rows[:, 0] - scalar) / size)) <= 5e-12
    oracle = np.array([_mp_line_value(t) for t in ts[::16].tolist()])
    assert _worst(oracle, rows[::16], log_t[::16]) <= 5e-12


def test_line_values_where_the_head_is_thinnest():
    # The array kernel's cutoff N = max(20, t/4 + 10) is thinnest just below
    # each step of t/4, where t/N is largest: near 40, 400 and 996, at t = 40
    # where N leaves its floor of 20, and at the top of the domain.  Each
    # point is a block of its own, so it sets N.
    ts = np.array([40.0, 1000.0, *(np.array([40.0, 44.0, 400.0, 404.0, 996.0, 1000.0]) - 1e-9)])
    rows = np.array([zerodist._line_values([t])[0] for t in ts.tolist()])
    oracle = np.array([_mp_line_value(t) for t in ts.tolist()])
    assert _worst(oracle, rows, np.log(ts)) <= 5e-12


def test_line_kernel_takes_arrays_only_on_the_critical_line():
    with pytest.raises(DomainError):
        specfun._log_xi_terms(np.array([0.5 + 20j, 0.7 + 20j]))
    with pytest.raises(RangeError):
        specfun._log_xi_terms(np.array([0.5 + 20j, 0.5 + 1200j]))


@pytest.mark.parametrize("block", [1, 7, 100, 1024])
def test_find_zeros_does_not_depend_on_the_block_size(monkeypatch, block):
    # blocks of one point evaluate the scan and refine the brackets one at a
    # time; blocks of at most 7 split both at points no default block ends
    # on; blocks of 65 to 100 end inside the kernel's second head chunk of 64
    # points, and one of 1,024 takes a whole round of scan or refinement in
    # one call
    monkeypatch.setattr(zerodist, "_BLOCK", block)
    zeros = find_zeros(500.0)
    expected = _reference_ordinates()[_reference_ordinates() < 500.0]
    assert len(zeros) == len(expected)
    assert float(np.max(np.abs(zeros.ordinates - expected))) <= 2e-12


def test_printed_ordinates_are_rounded_from_within_2e_12():
    # find_zeros leaves at most 2e-12, so the 10 printed decimals are the
    # correctly rounded ones at the 625 zeros below 1000 that lie farther
    # than that from a rounding boundary; at the other 24 either neighbour
    # may print.  564.50605593814983512 lies 1.6e-13 below a boundary.
    lines = REFERENCE.read_text(encoding="utf-8").splitlines()
    reference = [Decimal(line) for line in lines if line and not line.startswith("#")]
    printed = [Decimal(line) for line in find_zeros(1000.0).to_text().splitlines()[2:]]
    assert len(printed) == len(reference) == 649
    far = 0
    for shown, exact in zip(printed, reference):
        rounded = exact.quantize(Decimal("1e-10"), rounding=ROUND_HALF_EVEN)
        if abs(abs(exact - rounded) - Decimal("5e-11")) > Decimal("2e-12"):
            far += 1
            assert shown == rounded, exact
        else:
            assert abs(shown - exact) <= Decimal("5.2e-11"), exact
    assert far == 625


def test_scan_probes_hermite_dips(monkeypatch):
    # halving Gram blocks took three rounds and 1,206 scan points to close
    # N(965); one round of probing the dips closes it with 641.  Scan points
    # are the points on the line not evaluated inside the refinement.
    calls = _count_evaluations(monkeypatch)
    reference = ZeroList.read(REFERENCE).ordinates
    zeros = find_zeros(965.0)
    assert len(zeros) == np.count_nonzero(reference < 965.0)
    assert calls["line"] - calls["refine"] <= 641


def test_scan_falls_back_to_gram_blocks(monkeypatch):
    # with no dip to probe, every round halves Gram blocks, and the scan
    # still closes against N(t_max)
    monkeypatch.setattr(zerodist, "_dips", lambda ts, gs: (np.zeros(0, dtype=int), np.zeros(0)))
    reference = ZeroList.read(REFERENCE).ordinates
    zeros = find_zeros(500.0)
    expected = reference[reference < 500.0]
    assert len(zeros) == len(expected)
    assert float(np.max(np.abs(zeros.ordinates - expected))) <= 1e-11


def test_newton_stop_rule_bound():
    # After a Newton step d the error is about C d^2, C = |g''/2g'| at the
    # zero; refinement stops after |d| <= 8e-7, which leaves at most 2e-12.
    # g' and g'' come from the analytic slope 1e-3 either side of each zero:
    # at the zero itself zeta'/zeta is rounding noise.  Worst: 3.09, at
    # 630.474.
    h = 1e-3
    k = _reference_ordinates()
    d_minus, d_plus = zerodist._line_values(np.concatenate((k - h, k + h)))[:, 1].reshape(2, -1)
    worst = float(np.max(np.abs((d_plus - d_minus) / (2 * h) / (d_plus + d_minus))))
    assert worst * 8e-7 ** 2 <= 2e-12


def _refine_one(*bracket: float) -> float:
    """_bisect_sign_change on one bracket (lo, g_lo, d_lo, hi, g_hi, d_hi),
    passed as six one-element columns."""
    (root,) = zerodist._bisect_sign_change(*np.array(bracket)[:, None])
    return float(root)


def test_refinement_bisects_a_step_that_leaves_the_bracket():
    # With these end slopes the cubic start lands near 11.13, where g has a
    # maximum and Newton's step aims at -9.9, far outside [10, 17.85].
    # Taken, it would head for another zero; bisected, it keeps 14.13.
    lo, hi = 10.0, 17.85
    (g_lo, _), (g_hi, _) = zerodist._line_values([lo, hi])
    nodes = np.array([(hi, g_hi, 500.0), (lo, g_lo, 0.0)])[..., None]
    start = zerodist._hermite_root(nodes, lo, hi, g_lo > 0)[0]
    g, dg = zerodist._line_values([start])[0]
    assert not lo < start - g / dg < hi
    root = _refine_one(lo, g_lo, 0.0, hi, g_hi, 500.0)
    assert abs(root - ZeroList.read(REFERENCE).ordinates[0]) <= 1e-11


@pytest.mark.parametrize("extra", [(), (-2.5, 4.0)], ids=["cubic", "quintic"])
def test_hermite_root_finds_a_polynomial_root(extra):
    # A cubic through two nodes, or a quintic through three, is its own
    # Hermite interpolant, so the routine returns its root in the bracket
    # (0, 1.5).  The newest node is the end 1.5; the third node, -0.5, lies
    # outside the bracket, as an older node of a refinement can.
    roots = np.array([0.2, 0.75, 1.4])
    lo, hi = np.zeros(3), np.full(3, 1.5)
    ts = [1.5, 0.0, -0.5][:2 + len(extra) // 2]
    polys = [np.polynomial.Polynomial.fromroots([r, -2.0, 3.0, *extra]) for r in roots]
    nodes = np.array([[[t] * 3, [q(t) for q in polys], [q.deriv()(t) for q in polys]] for t in ts])
    positive = np.array([q(0.0) > 0 for q in polys])
    np.testing.assert_allclose(zerodist._hermite_root(nodes, lo, hi, positive), roots, rtol=0, atol=1e-9)


@pytest.mark.parametrize("start", [0.0, 0.4], ids=["on-the-zero", "on-the-bracket-end"])
def test_refinement_from_an_exact_start(monkeypatch, start):
    # A point that lands on a zero: there g' = g (pi/4 - Im L') is rounding
    # noise, more than half off the slope of about 1.15e4 at the 54th zero,
    # and a Newton step on it ended 1.31e-11 off; the chord to the node
    # before gives the certificate step a slope it can trust.  That is the
    # rule _bisect_sign_change applies, here with a chord 1e-3 either side.
    # A first point inside the bracket can also round onto its end hi.
    z = float(_reference_ordinates()[53])
    h = 1e-3
    (g_minus, _), (_, d_zero), (g_plus, _) = zerodist._line_values([z - h, z, z + h])
    chord = (g_plus - g_minus) / (2 * h)
    assert abs(d_zero - chord) > 0.5 * abs(chord)
    hermite_root = zerodist._hermite_root

    def first_at_start(nodes, *bracket):
        if len(nodes) == 2:  # the first call, on the bracket ends
            return np.full(nodes.shape[-1], z + start)
        return hermite_root(nodes, *bracket)

    monkeypatch.setattr(zerodist, "_hermite_root", first_at_start)
    lo, hi = z - 0.3, z + 0.4
    (g_lo, d_lo), (g_hi, d_hi) = zerodist._line_values([lo, hi])
    assert abs(_refine_one(lo, g_lo, d_lo, hi, g_hi, d_hi) - z) <= 1e-11


@settings(max_examples=300)
@given(st.integers(0, 648), st.floats(1e-6, 0.999), st.floats(1e-6, 0.999))
def test_refinement_from_any_bracket_around_a_zero(i, u, v):
    # brackets [z - a, z + b] no scan draws: asymmetric, narrow, or reaching
    # almost to the neighbouring zeros (10 and 1000 past the end ones)
    zeros = _reference_ordinates()
    z = float(zeros[i])
    below = float(zeros[i - 1]) if i else 10.0
    above = float(zeros[i + 1]) if i + 1 < len(zeros) else 1000.0
    lo, hi = z - u * (z - below), z + v * (above - z)
    (g_lo, d_lo), (g_hi, d_hi) = zerodist._line_values([lo, hi])
    assert (g_lo > 0) != (g_hi > 0)
    assert abs(_refine_one(lo, g_lo, d_lo, hi, g_hi, d_hi) - z) <= 1e-11


def test_find_zeros_cluster_error(monkeypatch):
    # below 500 the grid alone falls short of N(t_max); with a width floor
    # above the grid spacing (about 1.4 there) the first split is refused
    monkeypatch.setattr(zerodist, "_MIN_WIDTH", 2.0)
    with pytest.raises(ClusterError, match="split down to"):
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


def test_residual_report_builds_the_step_measure_once(monkeypatch):
    ordinates = ZeroList.read(REFERENCE).ordinates
    direct = StepFunction((float(k), 1) for k in ordinates)
    zs = (60.0, 120.5, 250.0, 400.0)
    built = []

    def counted(jumps):
        built.append(StepFunction(jumps))
        return built[-1]

    monkeypatch.setattr(zerodist, "StepFunction", counted)
    report = residual_report(zs, ZeroList.read(REFERENCE))
    assert len(built) == 1
    # bit for bit what a measure built jump by jump gives, tail terms unchanged
    monkeypatch.setattr(zerodist, "transform_step", lambda phi, z: transform_step(direct, z))
    assert report.samples == residual_report(zs, ZeroList.read(REFERENCE)).samples


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


def test_crossing_count_bound_is_the_documented_one():
    # (k_b - k_a)^3 / (8 pi k_a^2), the same floats in the same order
    assert crossing_count(20.0, 23.0).bound == 3.0 ** 3 / (8 * math.pi * 20.0 * 20.0)


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
