"""End-to-end acceptance checks, one test per numbered criterion.

Each test appends a PASS/FAIL line to the terminal summary.  Criterion 8
is split: the Stirling-remainder bound with the printed coefficient is
mathematically false for every x > 3/2, so that part is a strict xfail
with the corrected coefficient checked alongside it.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from zetaprod.specfun import (
    ln_zeta_bound_check,
    log_xi_asymptotic,
    log_xi_z,
    stirling_w,
    xi_z,
)
from zetaprod.transforms import (
    ROW_VERIFICATION_PAIRS,
    StripQuad,
    cosh_demo,
    count_zeros_contour,
    multiplicity_demo,
    sine_integral_identity,
    strip_decomposition_check,
    verify_table_row,
)
from zetaprod.zerodist import (
    A_ROOT,
    n_of_t,
    predict_zeros,
    residual_report,
    solve_a,
    t5_constant,
)


def _line(n, ok, detail, dt, limit):
    status = "PASS" if ok else "FAIL"
    return f"criterion {n}: {status} {detail} [{dt:.2f}s < {limit:g}s]"


def test_criterion1_xi_at_center(acceptance_log):
    t0 = time.monotonic()
    value = math.log(xi_z(0.0).real)
    dt = time.monotonic() - t0
    ok = abs(value - (-0.69892)) <= 5e-4 and dt < 1.0
    acceptance_log(_line(1, ok, f"ln xi_z(0) = {value:.6f} vs -0.69892 +- 5e-4", dt, 1))
    assert ok


def test_criterion2_curve_root(acceptance_log):
    t0 = time.monotonic()
    a = solve_a()
    c = t5_constant(a)
    dt = time.monotonic() - t0
    ok = abs(a - 9.6769) <= 1e-3 and abs(c - 0.8582) <= 1e-3 and dt < 1.0
    acceptance_log(_line(2, ok, f"solve_a() = {a:.6f}, t5_constant = {c:.6f}", dt, 1))
    assert ok


def test_criterion3_table_oracle(acceptance_log):
    t0 = time.monotonic()
    bad = []
    for row, pairs in sorted(ROW_VERIFICATION_PAIRS.items()):
        assert len(pairs) == 5
        for a, z in pairs:
            chk = verify_table_row(row, a, z)
            if not chk.agree:
                bad.append((row, a, z))
    dt = time.monotonic() - t0
    ok = not bad and dt < 30.0
    acceptance_log(_line(3, ok, f"9 rows x 5 pairs, {45 - len(bad)}/45 agree", dt, 30))
    assert ok, bad


def test_criterion4_cosh_reconstruction(acceptance_log):
    t0 = time.monotonic()
    cosh_worst = max(
        abs(cosh_demo(z, 40).reconstructed - math.log(math.cosh(z)))
        for z in (1.0, 2.0, 5.0)
    )
    sine_worst = max(
        abs((res := sine_integral_identity(a)).numeric - res.closed)
        for a in (0.5, 1.0, 2.0)
    )
    dt = time.monotonic() - t0
    ok = cosh_worst <= 1e-6 and sine_worst <= 1e-8 and dt < 5.0
    acceptance_log(_line(
        4, ok,
        f"cosh dev {cosh_worst:.2e} <= 1e-6, residue identity {sine_worst:.2e} <= 1e-8",
        dt, 5,
    ))
    assert ok


def test_criterion5_zero_finding(acceptance_log, scan100, xi_phase):
    zeros, scan_dt = scan100
    t0 = time.monotonic()
    contour50 = count_zeros_contour(xi_phase, 50.0, min_samples=1024)
    contour100 = count_zeros_contour(xi_phase, 100.0, min_samples=1024)
    dt = scan_dt + time.monotonic() - t0
    first = float(zeros.ordinates[0])
    below50 = zeros.count_below(50.0)
    ok = (
        abs(first - 14.1347) <= 1e-3
        and below50 == 10 and len(zeros) == 29
        and contour50 == 10 and contour100 == 29
        and dt < 120.0
    )
    acceptance_log(_line(
        5, ok,
        f"first zero {first:.6f}, {below50} below 50, {len(zeros)} below 100, "
        f"contour says {contour50}/{contour100}",
        dt, 120,
    ))
    assert ok


def test_criterion6_counting_formula(acceptance_log, scan100):
    zeros, _ = scan100
    t0 = time.monotonic()
    grid = np.arange(20.0, 100.1, 5.0)
    worst = max(abs(zeros.count_below(t) - n_of_t(t)) for t in grid)
    dt = time.monotonic() - t0
    ok = worst < 2.0
    acceptance_log(_line(
        6, ok, f"max |actual - N(T)| = {worst:.4f} < 2 on [20, 100] step 5", dt, 120,
    ))
    assert ok


def test_criterion7_residual_constant(acceptance_log, scan500):
    zeros, scan_dt = scan500
    t0 = time.monotonic()
    report = residual_report([100.0, 150.0, 200.0], zeros)
    dt = scan_dt + time.monotonic() - t0
    values = [value for _, value, _ in report.samples]
    res200 = values[-1]
    spread = max(values) - min(values)
    ok = (
        abs(res200 - (-0.0464)) <= 0.02
        and abs(abs(res200) - 0.0464) <= 0.02
        and spread < 0.02
        and dt < 600.0
    )
    acceptance_log(_line(
        7, ok,
        f"residual(200) = {res200:.5f} vs -0.0464, spread over z in "
        f"{{100,150,200}} = {spread:.5f}",
        dt, 600,
    ))
    assert ok


def test_criterion8a_asymptotic_deviation(acceptance_log):
    t0 = time.monotonic()
    rng = np.random.default_rng(20260801)
    worst = 0.0
    violations = 0
    for _ in range(50):
        re = 10.2 + 90.0 * rng.random()
        z = complex(re, (rng.random() - 0.5) * re)
        terms = log_xi_asymptotic(z)
        dev = abs(log_xi_z(z) - terms.main_sum())
        worst = max(worst, dev * abs(z) / 2.0)
        violations += dev > terms.remainder_bound
    dt = time.monotonic() - t0
    ok = violations == 0 and dt < 10.0
    acceptance_log(_line(
        "8a", ok,
        f"deviation <= 2/|z| at 50 points re(z) > 10 (worst ratio {worst:.3f})",
        dt, 10,
    ))
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="printed coefficient is too small: |w(x/2 + 1/4)| is about "
    "1/(6x + 3), which exceeds 1/(8x) for every x > 3/2",
)
def test_criterion8b_stirling_bound_as_printed(acceptance_log):
    rng = np.random.default_rng(20260802)
    xs = 8.6 + 91.0 * rng.random(50)
    violations = int(sum(abs(stirling_w(x / 2 + 0.25)) >= 1.0 / (8.0 * x) for x in xs))
    acceptance_log(
        f"criterion 8b: FAIL |w(x/2+1/4)| < 1/(8x) violated at {violations}/50 "
        f"points with x > 8.5; the bound is unattainable as printed "
        f"(e.g. |w(4.75)| = {abs(stirling_w(4.75)):.6f} > 1/68 = {1 / 68:.6f})"
    )
    assert violations == 0


def test_criterion8b_stirling_bound_corrected(acceptance_log):
    t0 = time.monotonic()
    rng = np.random.default_rng(20260802)
    xs = 8.6 + 91.0 * rng.random(50)
    violations = int(sum(abs(stirling_w(x / 2 + 0.25)) >= 1.0 / (4.0 * x + 2.0) for x in xs))
    dt = time.monotonic() - t0
    ok = violations == 0 and dt < 10.0
    acceptance_log(_line(
        "8b*", ok, "corrected bound |w(x/2+1/4)| < 1/(4x+2) holds at the same 50 points",
        dt, 10,
    ))
    assert ok


def test_criterion8c_ln_zeta_bound(acceptance_log):
    t0 = time.monotonic()
    rng = np.random.default_rng(20260803)
    xs = 10.1 + 90.0 * rng.random(50)
    violations = int(sum(not ln_zeta_bound_check(complex(x)) for x in xs))
    dt = time.monotonic() - t0
    ok = violations == 0 and dt < 10.0
    acceptance_log(_line(
        "8c", ok, "ln zeta bound holds at 50 points x > 10", dt, 10,
    ))
    assert ok


def test_criterion9_predictor(acceptance_log, scan100):
    zeros, _ = scan100
    t0 = time.monotonic()
    predicted = predict_zeros(10)
    devs = np.abs(zeros.ordinates[:10] - predicted)
    mean_dev = float(devs.mean())
    max_dev = float(devs.max())

    staircase = predict_zeros(40)
    ks = np.arange(A_ROOT + 0.05, 100.0, 0.05)
    gap = int(np.max(np.abs(
        zeros.count_below(ks) - np.searchsorted(staircase, ks, side="right")
    )))
    dt = time.monotonic() - t0
    ok = mean_dev <= 1.0 and max_dev <= 2.0 and gap <= 2 and dt < 10.0
    acceptance_log(_line(
        9, ok,
        f"mean dev {mean_dev:.4f} <= 1, max dev {max_dev:.4f} <= 2, "
        f"staircase gap {gap} <= 2",
        dt, 10,
    ))
    assert ok


def test_criterion10_multiplicity_and_strip(acceptance_log):
    t0 = time.monotonic()
    mult_worst = max(
        abs(multiplicity_demo(n, 40.0 * n).ratio / 2.0 ** (1 - n) - 1)
        for n in (2, 3, 4)
    )
    rng = np.random.default_rng(20260804)
    strip_worst = 0.0
    for _ in range(20):
        quad = StripQuad.from_theta(q=0.6 + 4 * rng.random(), theta=0.95 * rng.random())
        z = complex(3 * rng.random() + 0.1, 3 * (rng.random() - 0.5))
        strip_worst = max(strip_worst, strip_decomposition_check(quad, z))
    dt = time.monotonic() - t0
    ok = mult_worst <= 0.01 and strip_worst <= 1e-10 and dt < 5.0
    acceptance_log(_line(
        10, ok,
        f"multiplicity within {mult_worst:.2e} of 2^(1-N), strip residual "
        f"{strip_worst:.2e} <= 1e-10 at 20 samples",
        dt, 5,
    ))
    assert ok
