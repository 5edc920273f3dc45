"""Generate the reference zero file ``bench/data/zeros_t1000.txt`` with mpmath.

Writes every ordinate of a Riemann zeta zero below 1000 (649 of them) in the
``ZeroList`` file format: comment lines, a ``# t_max=1000`` header and one
ordinate per line with 20 significant digits.  mpmath's ``zetazero`` takes
about half a second per zero, so a full run is a one-off of several minutes;
the benchmark only reads the committed output.

    python3 bench/make_reference.py
"""

from __future__ import annotations

from pathlib import Path

import mpmath

T_MAX = 1000
OUT = Path(__file__).resolve().parent / "data" / "zeros_t1000.txt"


def main() -> None:
    mpmath.mp.dps = 30
    ordinates = []
    n = 1
    while True:
        t = mpmath.zetazero(n).imag
        if t >= T_MAX:
            break
        ordinates.append(mpmath.nstr(t, 20, strip_zeros=False))
        n += 1
    lines = [
        "# xi zero ordinates (imaginary-axis, z-coordinates)",
        f"# every zero below t_max, from mpmath {mpmath.__version__} zetazero at dps=30",
        f"# t_max={T_MAX}",
        *ordinates,
    ]
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(ordinates)} ordinates to {OUT}")


if __name__ == "__main__":
    main()
