"""Transform layer: step measures, density catalog, demos, strip algebra."""

from __future__ import annotations

import cmath
import math
import re

import numpy as np
import pytest

from zetaprod import cli, transforms
from zetaprod.errors import (
    ConvergenceError,
    DomainError,
    ProximityError,
    RangeError,
    SingularityError,
)
from zetaprod.specfun import xi_z
from zetaprod.transforms import (
    ROW_VERIFICATION_PAIRS,
    TRUNCATED_ROWS,
    DensityForm,
    DensityKind,
    StepFunction,
    StripQuad,
    axial_product,
    correction_term_bound,
    cosh_demo,
    count_zeros_contour,
    multiplicity_demo,
    sine_integral_identity,
    strip_decomposition_check,
    strip_quad_factor,
    table_row_closed_form,
    transform_numeric,
    transform_step,
    verify_table_row,
)


# ------------------------------------------------------- step measure


def test_step_function_counts():
    pairs = [(1.0, 1), (2.5, 2), (7.0, 1)]
    # a list, a generator and an (n, 2) array of the same pairs build the same measure
    for phi in (StepFunction(pairs), StepFunction(p for p in pairs), StepFunction(np.array(pairs))):
        assert len(phi) == 3
        np.testing.assert_array_equal(phi.positions, [1.0, 2.5, 7.0])
        assert phi.weights.tolist() == [1, 2, 1] and phi.weights.dtype == np.int64
        assert phi.count_at(0.5) == 0
        assert phi.count_at(2.5) == 3
        assert phi.count_at(100.0) == 4
        np.testing.assert_array_equal(phi.count_at(np.array([1.0, 3.0])), [1, 3])


def test_step_function_add_merges():
    a = StepFunction([(1.0, 1), (3.0, 1)])
    b = StepFunction([(3.0, 2), (5.0, 1)])
    merged = a + b
    assert merged.jumps == [(1.0, 1), (3.0, 3), (5.0, 1)]


def test_step_function_validation():
    position = "jump position must be finite and positive, got "
    weight = "jump weight must be a positive integer, got "
    increasing = "jump positions must be strictly increasing"
    for jumps, message in (
        ([(0.0, 1)], position + "0.0"),
        ([(1.0, 1), (math.nan, 1)], position + "nan"),
        ([(math.inf, 1)], position + "inf"),
        ([(2.0, 1), (2.0, 1)], increasing),
        ([(3.0, 1), (2.0, 1)], increasing),
        ([(1.0, 0)], weight + "0.0"),
        ([(1.0, 1.5)], weight + "1.5"),
        ([(1.0, 1), (2.0, math.nan)], weight + "nan"),
        ([(1.0, 2.0**60)], weight + "1.152921504606847e+18"),  # above 2**53 doubles skip integers
    ):
        with pytest.raises(DomainError) as exc:
            StepFunction(jumps)
        assert str(exc.value) == message, jumps


def test_transform_step_matches_direct_sum():
    phi = StepFunction([(2.0, 1), (3.0, 2)])
    z = 1.5 + 0.5j
    direct = cmath.log(1 + (z / 2) ** 2) + 2 * cmath.log(1 + (z / 3) ** 2)
    assert abs(transform_step(phi, z) - direct) < 1e-14


def test_transform_step_singularity():
    phi = StepFunction([(2.0, 1)])
    with pytest.raises(SingularityError):
        transform_step(phi, 2j)


# ---------------------------------------------------- density catalog


@pytest.mark.parametrize("row", sorted(ROW_VERIFICATION_PAIRS))
def test_table_row_all_pairs_agree(row):
    for a, z in ROW_VERIFICATION_PAIRS[row]:
        chk = verify_table_row(row, a, z)
        assert chk.agree, (row, a, z, chk)


def test_truncated_rows_are_2_and_4():
    assert TRUNCATED_ROWS == frozenset({2, 4})


def test_table_row_closed_form_domain():
    with pytest.raises(DomainError):
        table_row_closed_form(0, 1.0, 2.0)
    with pytest.raises(DomainError):
        table_row_closed_form(1, -1.0, 2.0)
    with pytest.raises(DomainError):
        table_row_closed_form(3, 2.0, 1.0)  # needs |z| >= 1.05 max(1, a)


@pytest.mark.parametrize("row,a,z,error,message", [
    (1, 2.0, 2j, SingularityError, "1 + z^2/a^2 vanishes"),
    (9, 2.0, 2j, SingularityError, "1 + z^2/a^2 vanishes"),
    (3, 2.0, 2.0, DomainError, "row 3 closed form needs |z| >= 1.05 * max(1, a)"),
    (5, 1.0, 1.0, DomainError, "row 5 closed form needs |z| >= 1.05 * max(1, a)"),
    (4, 1.0, 0.5, DomainError, "row 4 closed form needs |z| >= 1"),
    *((row, 1.0, 0.0, DomainError, "z must be nonzero for this row") for row in (6, 7, 8, 9)),
])
def test_table_row_closed_form_refusals(row, a, z, error, message):
    with pytest.raises(error, match=re.escape(message)):
        table_row_closed_form(row, a, z)


def test_density_form_validation():
    with pytest.raises(DomainError, match="kind must be a DensityKind"):
        DensityForm("unit_step")
    with pytest.raises(DomainError, match="a must be positive and finite"):
        DensityForm(DensityKind.UNIT_STEP, a=0)


def test_transform_numeric_wedge():
    phi = DensityForm(DensityKind.UNIT_STEP, a=1.0)
    with pytest.raises(DomainError):
        transform_numeric(phi, 1 + 2j)
    with pytest.raises(DomainError):
        transform_numeric(phi, -3.0)


@pytest.mark.parametrize("z", [1e120, 1e200])
def test_transform_numeric_range(z):
    # k (k^2 + z^2) overflows at k_max = 20 |z| once |z| passes about
    # 2.8e101: at 1e120 the unit step's transform read 0.0025 with an error
    # estimate near 5e-18 (it is 2 ln z = 553), and from about 1e156 NaN
    with pytest.raises(RangeError):
        transform_numeric(DensityForm(DensityKind.UNIT_STEP, a=1.0), z)


def test_transform_numeric_estimate_honest():
    rng = np.random.default_rng(20260601)
    for _ in range(6):
        row = int(rng.integers(1, 10))
        a, z = ROW_VERIFICATION_PAIRS[row][0]
        got = transform_numeric(DensityForm(DensityKind(_kind_of(row)), a=a), z)
        if row in TRUNCATED_ROWS:
            continue  # closed form dropped terms; not an estimate check
        closed = table_row_closed_form(row, a, z)
        assert abs(got.value - closed) <= max(3 * got.abs_error_estimate, 1e-9)


def _kind_of(row: int) -> str:
    return {
        1: "unit_step", 2: "k_step", 3: "lnk_step", 4: "k_lnk_step",
        5: "lnk_over_k_step", 6: "k_sqrt_k", 7: "k_sqrt_k_lnk",
        8: "inv_k_step", 9: "inv_k2_step",
    }[row]


def test_transform_numeric_deterministic():
    phi = DensityForm(DensityKind.LNK_STEP, a=1.0)
    first = transform_numeric(phi, 3 + 1j)
    second = transform_numeric(phi, 3 + 1j)
    assert first == second


def test_sawtooth_transform_closed_form():
    # saw(k) = round(k) - k, and round is the half-integer staircase, so
    # the transform is ln cosh(pi z) - pi z
    saw = DensityForm(DensityKind.SAWTOOTH_PERIODIC, a=1.0)
    for z in (2.0, 3.0):
        got = transform_numeric(saw, z)
        ref = math.log(0.5) + math.log1p(math.exp(-2 * math.pi * z))
        assert abs(got.value - ref) <= max(3 * got.abs_error_estimate, 1e-9)
        assert got.abs_error_estimate < 1e-6


def test_cutoff_beyond_the_finite_range():
    # a = 150 lies past k_max = 100, so the whole support is the mapped tail
    z = 1 + 0.5j
    got = transform_numeric(DensityForm(DensityKind.UNIT_STEP, a=150.0), z)
    assert abs(got.value - cmath.log(1 + z * z / 150.0 ** 2)) <= got.abs_error_estimate <= 2e-10


def _count_quadrature(monkeypatch) -> dict[str, int]:
    """Count the quadrature evaluations of transforms from here on, and the
    integrand calls that carry them."""
    counts = {"evals": 0, "calls": 0}
    integrate = transforms.integrate

    def counted(f, *args, **kwargs):
        def integrand(x):
            counts["calls"] += 1
            return f(x)

        value, err, evals = integrate(integrand, *args, **kwargs)
        counts["evals"] += evals
        return value, err, evals

    monkeypatch.setattr(transforms, "integrate", counted)
    return counts


def test_sawtooth_quadrature_cost(monkeypatch):
    # 502 panels of the initial partition in two calls, then one split whose
    # halves take one call each; ceilings that may only tighten
    counts = _count_quadrature(monkeypatch)
    transform_numeric(DensityForm(DensityKind.SAWTOOTH_PERIODIC, a=1.0), 5.0)
    assert 0 < counts["evals"] <= 7560
    assert 0 < counts["calls"] <= 4


@pytest.mark.parametrize("a,z", [(5e-3, 5.0), (1.0, 5000.0)])
def test_sawtooth_over_budget_is_refused_before_any_work(monkeypatch, a, z):
    # a panel per period out to k_max = max(500, 20|z|) is 1.5e6 evaluations
    # here, over the budget of 1e6: refused before a breakpoint is built,
    # not after evaluating the 1,500,030 nodes of the initial partition
    counts = _count_quadrature(monkeypatch)
    with pytest.raises(ConvergenceError, match="budget of 1000000 evaluations exhausted"):
        transform_numeric(DensityForm(DensityKind.SAWTOOTH_PERIODIC, a=a), z)
    assert counts["calls"] == 0


def test_verify_table_quadrature_cost(monkeypatch, capsys):
    counts = _count_quadrature(monkeypatch)
    assert cli.main(["verify-table", "--all-pairs"]) == 0
    assert "agree=false" not in capsys.readouterr().out
    assert 0 < counts["evals"] <= 17925
    assert 0 < counts["calls"] <= 1072


# ---------------------------------------------------------- identities


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_sine_integral_identity(a):
    res = sine_integral_identity(a)
    assert abs(res.numeric - res.closed) <= 1e-8
    assert abs(res.numeric - res.closed) <= max(res.abs_error_estimate, 1e-12)


def test_sine_integral_identity_domain():
    with pytest.raises(DomainError):
        sine_integral_identity(-1.0)


@pytest.mark.parametrize("z", [1.0, 2.0, 5.0])
def test_cosh_demo_reconstruction(z):
    res = cosh_demo(z, 40)
    assert abs(res.reconstructed - res.exact) <= 1e-6
    assert abs(res.exact - cmath.log(cmath.cosh(z))) < 1e-13


def test_cosh_demo_domain():
    with pytest.raises(DomainError):
        cosh_demo(-1.0, 40)
    with pytest.raises(DomainError):
        cosh_demo(1.0, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_multiplicity_limit(n):
    res = multiplicity_demo(n, 40.0 * n)
    assert abs(res.ratio / res.limit - 1) <= 0.01
    assert res.limit == 2.0 ** (1 - n)


def test_multiplicity_domain():
    with pytest.raises(DomainError):
        multiplicity_demo(1, 10.0)
    with pytest.raises(DomainError):
        multiplicity_demo(4, 6.0)


def test_axial_product_rebuilds_cosh():
    # cosh has zeros at i pi (l - 1/2); 20000 factors leave ~1e-5 relative
    ks = math.pi * (np.arange(1, 20001) - 0.5)
    zeros = StepFunction((float(k), 1) for k in ks)
    for z in (1.0, 2.0 + 1j, 0.3):
        # dropped factors shift the ratio by about |z|^2 / (pi^2 * 20000)
        assert abs(axial_product(1.0, zeros, z) / cmath.cosh(z) - 1) < 1e-4


def test_axial_product_domain():
    zeros = StepFunction([(1.0, 1)])
    with pytest.raises(DomainError):
        axial_product(0.0, zeros, 1.0)


# ------------------------------------------------------- strip algebra


def test_strip_quad_validation():
    with pytest.raises(DomainError):
        StripQuad(q=0.4, beta=0.0)
    with pytest.raises(DomainError):
        StripQuad(q=10.0, beta=0.5)  # theta way above 1
    with pytest.raises(DomainError, match="beta must be >= 0"):
        StripQuad(1.0, -0.1)
    with pytest.raises(DomainError, match=re.escape("theta must lie in [0, 1)")):
        StripQuad.from_theta(1.0, 1.5)
    with pytest.raises(DomainError, match="q must exceed 1/2"):
        StripQuad.from_theta(0.4, 0.5)
    quad = StripQuad.from_theta(q=3.0, theta=0.7)
    assert abs(quad.theta - 0.7) < 1e-12
    with pytest.raises(SingularityError, match="double zero"):
        strip_decomposition_check(quad, 1j * quad.q)


def test_strip_quad_degenerate_axis_pair():
    quad = StripQuad(q=2.0, beta=0.0)
    assert quad.theta == 0.0
    z = 1 + 0.5j
    ref = (1 + (z / 2.0) ** 2) ** 2
    assert abs(strip_quad_factor(quad, z) - ref) < 1e-14


def test_strip_decomposition_residual_roundoff():
    rng = np.random.default_rng(20260602)
    for _ in range(20):
        q = 0.6 + 4 * rng.random()
        theta = 0.95 * rng.random()
        quad = StripQuad.from_theta(q=q, theta=theta)
        z = complex(3 * rng.random() + 0.1, 3 * (rng.random() - 0.5))
        assert strip_decomposition_check(quad, z) <= 1e-10


def test_correction_term_bound_holds_in_wedge():
    rng = np.random.default_rng(20260603)
    quads = [StripQuad.from_theta(q=1.0 + k, theta=0.8 / (1 + k)) for k in range(8)]
    for _ in range(10):
        x = 0.2 + 5 * rng.random()
        z = complex(x, x * (2 * rng.random() - 1))  # |arg z| <= pi/4
        res = correction_term_bound(quads, z)
        assert res.holds
        assert res.first_violation is None
        assert res.sum_abs <= res.bound + 1e-15


def test_correction_term_bound_wedge_domain():
    with pytest.raises(DomainError):
        correction_term_bound([StripQuad(q=2.0, beta=0.0)], 1 + 2j)


# ------------------------------------------------------ contour count


def test_contour_counts_xi_zeros():
    assert count_zeros_contour(xi_z, 10.0) == 0
    assert count_zeros_contour(xi_z, 20.0) == 1


def test_contour_phase_handle_larger_radius(xi_phase):
    assert count_zeros_contour(xi_phase, 30.0, min_samples=512) == 3
    assert count_zeros_contour(xi_phase, 40.0, min_samples=512) == 6


def test_contour_through_a_zero_raises_proximity():
    with pytest.raises(ProximityError):
        count_zeros_contour(xi_z, 14.134725141734695)


def test_contour_rejects_f_not_real_on_the_axes():
    # the quarter arc counts only for f even and real on the real axis;
    # a constant phase turn breaks that without moving any zero
    with pytest.raises(ConvergenceError):
        count_zeros_contour(lambda z: cmath.exp(0.3j) * xi_z(z), 20.0)


def test_contour_validation():
    with pytest.raises(DomainError):
        count_zeros_contour(xi_z, -1.0)
    with pytest.raises(DomainError):
        count_zeros_contour(xi_z, 10.0, min_samples=32)
