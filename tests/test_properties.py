"""Property tests: exact symmetries of xi_z, linearity of the step transform,
the catalog's closed forms against quadrature, the closed-form inverse of the
smooth counting curve, the CLI's block CSV writer, and the CLI's exit
statuses over its documented grammar.

Examples are drawn by hypothesis under the derandomized profile that
``conftest.py`` loads, so every run checks the same points.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import re
import struct
from importlib import resources

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetaprod.cli import _BLOCK, _g, _write_rows, main
from zetaprod.specfun import xi_z
from zetaprod.transforms import TRUNCATED_ROWS, StepFunction, transform_step, verify_table_row
from zetaprod.zerodist import _phi_inverse, phi_smooth

# both half-planes, across the supported |Im| <= 1000
points = st.builds(complex, st.floats(-50, 50), st.floats(-1000, 1000))

# small integer positions repeat often, so two functions share jumps
steps = st.dictionaries(
    st.one_of(st.integers(1, 40).map(float), st.floats(0.5, 1000)),
    st.integers(1, 3),
    min_size=1,
    max_size=30,
).map(lambda jumps: StepFunction(sorted(jumps.items())))

# |arg z| <= 0.7 < pi/4 keeps 1 + z^2/k^2 away from 0
wedge = st.builds(lambda r, arg: complex(r * np.cos(arg), r * np.sin(arg)),
                  st.floats(0.1, 500), st.floats(-0.7, 0.7))


def _bits(w: complex) -> bytes:
    return struct.pack("<dd", w.real, w.imag)


@given(points)
def test_xi_z_even_bit_for_bit(z):
    assert _bits(xi_z(-z)) == _bits(xi_z(z))


@given(points)
def test_xi_z_conjugate_symmetric(z):
    assert xi_z(z.conjugate()) == xi_z(z).conjugate()


@given(steps, steps, wedge)
def test_transform_step_is_linear(a, b, z):
    def scale(phi):
        return float(np.sum(phi.weights * np.abs(np.log1p(z * z / phi.positions ** 2))))

    lhs = transform_step(a + b, z)
    rhs = transform_step(a, z) + transform_step(b, z)
    assert abs(lhs - rhs) <= 1e-13 * (scale(a) + scale(b))


@st.composite
def catalog_points(draw):
    """A catalog row, a cutoff a and z with |arg z| <= 0.6 in the row's stated domain."""
    row = draw(st.integers(1, 9))
    a = draw(st.floats(0.5, 2.0))
    if row in (3, 5):
        lo, hi = 1.05 * max(1.0, a), 10.0
    elif row in TRUNCATED_ROWS:
        lo, hi = 50.0 * max(1.0, a) ** 1.5, 100.0 * max(1.0, a) ** 1.5
    else:
        lo, hi = 0.5, 10.0
    z = cmath.rect(draw(st.floats(lo, hi)), draw(st.floats(-0.6, 0.6)))
    assume(abs(z) >= lo)  # rect may round |z| a step below the domain's edge
    return row, a, z


@given(catalog_points())
def test_catalog_closed_form_matches_quadrature(point):
    assert verify_table_row(*point).agree


@given(st.floats(0, 1e4))
def test_phi_inverse_inverts_phi(level):
    assert abs(phi_smooth(_phi_inverse(level)) - level) <= 5e-15 * max(1.0, level)


@given(st.floats(0, 1e4), st.floats(1e-6, 1e3))
def test_phi_inverse_increases(level, gap):
    assert _phi_inverse(level) < _phi_inverse(level + gap)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
       st.lists(st.integers(-2 ** 53, 2 ** 53), min_size=1, max_size=40),
       st.sampled_from([0, 1, _BLOCK, _BLOCK + 1]))
def test_write_rows_matches_per_row_formatting(floats, ints, rows):
    # -0.0 and subnormals on every draw, whatever else is drawn
    x = np.resize(np.array([-0.0, 5e-324, -2.5e-310, *floats]), rows)
    y = np.roll(x, 1)
    counts = np.resize(np.array(ints, dtype=np.int64), rows)
    floors = counts.astype(float)
    written: list[str] = []
    _write_rows(written.append, "%.10g,%d,%.10g,%d\n", x, counts, y, floors)
    assert len(written) == -(-rows // _BLOCK)
    assert "".join(written) == "".join(
        f"{_g(a)},{int(b)},{_g(c)},{int(d)}\n" for a, b, c, d in zip(x, counts, y, floors)
    )


# ------------------------------------------------------- CLI grammar fuzzer

BUNDLED = str(resources.files("zetaprod").joinpath("data/zeros_t100.txt"))


def _cheap(x: float) -> bool:
    """No zero scan above t = 100, and no grid step that builds 1e5 rows or more
    yet passes the 1e6-row limit, which any step below 1e-7 fails at t_max >= 10."""
    return not (100 < x <= 1000 or 1e-7 < x < 1e-3)


# numbers as Python prints them (nan, inf, huge, subnormal), text that is no
# number, and numbers a float cannot hold
junk = st.one_of(st.floats().filter(_cheap).map(repr), st.text(".,+-eEinfa x", max_size=6),
                 st.sampled_from(["1e999", "-1e999", "1e-999", "0x1p3", ""]))


def number(valid):
    """A valid number three times in four, else junk."""
    valid = valid.filter(_cheap).map(str)
    return st.one_of(valid, valid, valid, junk)


def numbers(valid, size=3):
    """A comma-separated list of numbers three times in four, else junk."""
    listed = st.lists(number(valid), min_size=1, max_size=size).map(",".join)
    return st.one_of(listed, listed, listed, junk)


def flag(name, value, required=False):
    """The option with a drawn value, or (unless required) nothing."""
    present = value.map(lambda v: [name, v])
    return present if required else st.one_of(st.just([]), present)


def command(name, *parts):
    return st.tuples(*parts).map(lambda drawn: [name] + [a for part in drawn for a in part])


huge_or_tiny = st.sampled_from([5e-324, 2.2e-308, 1e300, 1.7976931348623157e308])
point = numbers(st.one_of(st.floats(-50.0, 50.0), st.floats(-1000.0, 1000.0),
                          huge_or_tiny, huge_or_tiny.map(lambda x: -x)), size=2)
t_max = number(st.one_of(st.floats(10.0, 100.0), st.just(100.0), st.floats()))
step = number(st.one_of(st.floats(0.01, 200.0), st.floats(max_value=1e-7)))
integer = number(st.one_of(st.integers(-2, 40), st.integers()))
zero_file = st.just(["--zero-file", BUNDLED])
jobs = flag("--jobs", st.sampled_from(["0", "1", "2"]))
tols = st.one_of(st.just([]), st.tuples(
    st.sampled_from(["cosh", "count", "predict-mean", "predict-max", "residual",
                     "omega-mean", "staircase", "x"]), number(st.floats(-1.0, 3.0)),
).map(lambda tol: ["--tol", "=".join(tol)]))

cli_argv = st.one_of(
    command("xi-eval", flag("--z", point, True)),
    command("verify-table", flag("--rows", numbers(st.integers(0, 10))),
            st.sampled_from([[], ["--all-pairs"]])),
    command("cosh-demo", flag("--z", point, True), flag("--terms", integer), tols),
    command("find-zeros", flag("--t-max", t_max, True), jobs),
    command("count", flag("--t-max", t_max, True), zero_file, jobs, tols),
    command("predict", flag("--n", integer, True), zero_file, jobs, tols),
    command("residual", flag("--z", numbers(st.one_of(st.just(50.0), st.floats(0.0, 200.0))),
                             True), flag("--t-max", t_max, True), zero_file, jobs, tols),
    command("omega", flag("--t-max", t_max, True), flag("--step", step), zero_file, jobs, tols),
    command("report", flag("--t-max", t_max, True), flag("--step", step), zero_file, jobs, tols),
)

NON_FINITE = re.compile(r"(?i)(?<![a-z_])(nan|inf)")


@settings(max_examples=200)
@given(cli_argv)
def test_cli_exit_status_over_the_grammar(argv):
    # exit 0 prints only finite numbers, exit 1 says why on stderr, and a
    # usage error (exit 2) prints nothing on stdout; nothing else escapes
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2), err.getvalue()
    if code == 0:
        assert not NON_FINITE.search(out.getvalue()), out.getvalue()
    elif code == 1:
        assert err.getvalue().startswith(("error: ", "FAIL: ")), err.getvalue()
    else:
        assert out.getvalue() == ""
