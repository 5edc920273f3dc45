"""Property tests: exact symmetries of xi_z, linearity of the step transform,
the closed-form inverse of the smooth counting curve, and the CLI's block
CSV writer.

Examples are drawn by hypothesis under the derandomized profile that
``conftest.py`` loads, so every run checks the same points.
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from zetaprod.cli import _BLOCK, _g, _write_rows
from zetaprod.specfun import xi_z
from zetaprod.transforms import StepFunction, transform_step
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
