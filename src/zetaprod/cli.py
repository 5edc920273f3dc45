"""Command-line driver exposing each experiment as a subcommand.

Numeric subcommands emit CSV (header line, 10 significant digits, UTF-8,
LF endings) so any plotting tool can reproduce the figures; identical
configuration yields byte-identical output.  Exit status is 0 only when
every check in the run passed its documented tolerance, 1 on a
computation or tolerance failure, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InsufficientZerosError, ZetaprodError
from .specfun import PI, TWO_PI, _log_xi, log_xi_asymptotic, log_xi_z, xi_z
from .transforms import ROW_VERIFICATION_PAIRS, cosh_demo, verify_table_row
from .zerodist import (
    A_ROOT,
    ZeroList,
    _check_grid,
    _check_residual_z,
    _phi_inverse,
    find_zeros,
    n_of_t,
    omega_stats,
    phi_smooth,
    predict_zeros,
    residual_report,
)

ZERO_FILE_ENV = "ZETAPROD_ZERO_FILE"

#: Rows formatted per write by _write_rows.
_BLOCK = 4096

#: Where a handler sends its output: the --out file's or stdout's write.
Write = Callable[[str], object]


def _g(x: float) -> str:
    return "%.10g" % x


def _gc(w: complex) -> str:
    w = complex(w)
    if w.imag == 0:
        return _g(w.real)
    return "%.10g%+.10gj" % (w.real, w.imag)


def _write_rows(write: Write, template: str, *columns: np.ndarray) -> None:
    """Write template per row of the columns: one ``.tolist()`` and one ``%`` per block."""
    for start in range(0, len(columns[0]), _BLOCK):
        values = np.column_stack([c[start:start + _BLOCK] for c in columns]).ravel().tolist()
        write(template * (len(values) // len(columns)) % tuple(values))


def _zlabel(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return "%g" % z.real
    return "%g%+gj" % (z.real, z.imag)


def _finite(text: str) -> float:
    """float(text) if it is finite; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_point(text: str) -> complex:
    try:
        parts = [_finite(p) for p in text.split(",")]
    except argparse.ArgumentTypeError:
        parts = []
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")
    return complex(*parts)


def _parse_reals(text: str) -> tuple[float, ...]:
    try:
        values = tuple(_finite(p) for p in text.split(",") if p.strip())
    except argparse.ArgumentTypeError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"expected Z1,Z2,..., got {text!r}")
    return values


def _parse_rows(text: str) -> tuple[int, ...]:
    try:
        rows = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        rows = ()
    if not rows or any(r not in ROW_VERIFICATION_PAIRS for r in rows):
        raise argparse.ArgumentTypeError(
            f"expected rows from 1..9 as R1,R2,..., got {text!r}"
        )
    return rows


def _parse_tol(text: str) -> tuple[str, float]:
    name, _, raw = text.partition("=")
    try:
        value = _finite(raw) if name else None
    except argparse.ArgumentTypeError:
        value = None
    if value is None:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def _resolve_zeros(args: argparse.Namespace, needed_t: float) -> ZeroList:
    """Zero ordinates below needed_t: explicit file, then env, then scan."""
    path = args.zero_file or os.environ.get(ZERO_FILE_ENV)
    if path:
        zeros = ZeroList.read(path)
        if zeros.t_max < needed_t - 1e-9:
            raise InsufficientZerosError(
                f"zero file {path} reaches t_max={zeros.t_max:g}, need {needed_t:g}"
            )
        if zeros.t_max > needed_t:
            zeros = ZeroList(zeros.ordinates[zeros.ordinates < needed_t], t_max=needed_t)
        return zeros
    return find_zeros(needed_t)


def _cmd_xi_eval(args: argparse.Namespace, write: Write) -> list[str]:
    z = args.z
    xi = xi_z(z)

    def fixed(w: complex, digits: int) -> str:
        if z.imag == 0:
            return "%.*f" % (digits, w.real)
        return "%.*f%+.*fj" % (digits, w.real, digits, w.imag)

    if z.real > 0.5:
        ln = log_xi_z(z)
    else:
        # log form: no underflow; phase in (-pi, pi], exactly 0 or pi on the line
        ln = _log_xi(z + 0.5)
        if z.real == 0:
            ln = complex(ln.real, PI * (round(ln.imag / PI) % 2))
        else:
            ln -= 1j * TWO_PI * round(ln.imag / TWO_PI)
    parts = [f"xi={fixed(xi, 6)}", f"ln_xi={fixed(ln, 5)}"]
    failures: list[str] = []
    if z.real > 10:
        terms = log_xi_asymptotic(z)
        dev = abs(ln - terms.main_sum())
        parts += [f"asym_dev={dev:.3e}", f"asym_bound={terms.remainder_bound:.3e}"]
        if not (dev <= terms.remainder_bound):
            failures.append(f"asymptotic deviation {dev:.3e} exceeds {terms.remainder_bound:.3e}")
    write(" ".join(parts) + "\n")
    return failures


def _cmd_verify_table(args: argparse.Namespace, write: Write) -> list[str]:
    failures: list[str] = []
    for row in args.rows:
        pairs = ROW_VERIFICATION_PAIRS[row]
        if not args.all_pairs:
            pairs = pairs[:1]
        for a, z in pairs:
            chk = verify_table_row(row, a, z)
            write(
                f"row={row} a={_g(a)} z={_zlabel(z)} closed={_gc(chk.closed)} "
                f"numeric={_gc(chk.numeric.value)} tol={chk.tolerance:.3e} "
                f"agree={'true' if chk.agree else 'false'}\n"
            )
            if not chk.agree:
                failures.append(f"row {row} disagrees at a={_g(a)}, z={_zlabel(z)}")
    return failures


def _cmd_cosh_demo(args: argparse.Namespace, write: Write) -> list[str]:
    res = cosh_demo(args.z, args.fourier_terms)
    diff = abs(res.reconstructed - res.exact)
    write(
        f"reconstructed={_gc(res.reconstructed)} exact={_gc(res.exact)} "
        f"abs_diff={diff:.3e} terms={args.fourier_terms}\n"
    )
    if not (diff <= args.tol["cosh"]):
        return [f"|reconstructed - exact| = {diff:.3e} > {args.tol['cosh']:.3e}"]
    return []


def _cmd_find_zeros(args: argparse.Namespace, write: Write) -> list[str]:
    zeros = find_zeros(args.t_max)
    write(zeros.to_text())
    args.wrote = f"wrote {len(zeros)} zeros to {args.output_path}"  # main prints it after closing
    return []


def _cmd_count(args: argparse.Namespace, write: Write) -> list[str]:
    zeros = _resolve_zeros(args, args.t_max)
    actual = zeros.count_below(args.t_max)
    formula = n_of_t(args.t_max)
    diff = actual - formula
    write(f"actual={actual} formula={_g(formula)} diff={_g(diff)}\n")
    if not (abs(diff) < args.tol["count"]):
        return [f"|actual - formula| = {abs(diff):.3g} >= {args.tol['count']:g}"]
    return []


def _cmd_predict(args: argparse.Namespace, write: Write) -> list[str]:
    # the n-th crossing alone sets the height: check the source before building arrays
    zeros = _resolve_zeros(args, float(_phi_inverse(args.n_max - 0.5)) + 3.0)
    if len(zeros) < args.n_max:
        raise InsufficientZerosError(f"need {args.n_max} zeros, zero source provides {len(zeros)}")
    predicted = predict_zeros(args.n_max)
    actual = zeros.ordinates[: args.n_max]
    devs = actual - predicted
    write("n,predicted_k,actual_k,deviation\n")
    _write_rows(write, "%d,%.10g,%.10g,%.10g\n",
                np.arange(1, args.n_max + 1), predicted, actual, devs)
    failures: list[str] = []
    mean_dev = float(np.mean(np.abs(devs)))
    max_dev = float(np.max(np.abs(devs)))
    if not (mean_dev <= args.tol["predict-mean"]):
        failures.append(f"mean |deviation| = {mean_dev:.3g} > {args.tol['predict-mean']:g}")
    if not (max_dev <= args.tol["predict-max"]):
        failures.append(f"max |deviation| = {max_dev:.3g} > {args.tol['predict-max']:g}")
    return failures


def _cmd_residual(args: argparse.Namespace, write: Write) -> list[str]:
    zeros = _resolve_zeros(args, args.t_max)
    for z in args.z_samples:
        _check_residual_z(z, zeros)
    # residual_report per z (and with none for the constant): each row goes out once computed
    constant = residual_report((), zeros).constant_derived
    write(f"# constant_derived={_g(constant)}\nz,residual,tail_estimate\n")
    failures: list[str] = []
    for z in args.z_samples:
        [(_, value, estimate)] = residual_report((z,), zeros).samples
        write(f"{_g(z)},{_g(value)},{_g(estimate)}\n")
        if not (abs(value - constant) <= args.tol["residual"]):
            failures.append(
                f"residual at z={_g(z)} is {_g(value)}, outside "
                f"{_g(constant)} +- {args.tol['residual']:.3g}"
            )
    return failures


def _cmd_omega(args: argparse.Namespace, write: Write) -> list[str]:
    zeros = _resolve_zeros(args, args.t_max)
    stats = omega_stats(zeros, grid_step=args.grid_step)
    write("k,omega,running_mean\n")
    _write_rows(write, "%.10g,%.10g,%.10g\n", *stats.grid.T, stats.running_mean[:, 1])
    if not (abs(stats.final_mean) <= args.tol["omega-mean"]):
        return [f"|running mean| at t_max = {abs(stats.final_mean):.3g} "
                f"> {args.tol['omega-mean']:g}"]
    return []


def _cmd_report(args: argparse.Namespace, write: Write) -> list[str]:
    if args.grid_step > args.t_max:
        raise DomainError(f"grid step {args.grid_step!r} exceeds t_max {args.t_max!r}")
    _check_grid(args.t_max, args.grid_step)
    zeros = _resolve_zeros(args, args.t_max)
    n = int(round(args.t_max / args.grid_step))
    ks = args.grid_step * np.arange(1, n + 1)
    ks = ks[ks <= args.t_max + 1e-12]
    phi_sm = phi_smooth(ks)
    phi_act = zeros.count_below(ks)
    # The n-th predicted ordinate is where phi crosses n - 1/2 above a, so
    # the predicted count is phi rounded; below a phi climbs back to 7/8.
    phi_prd = np.where(ks > A_ROOT, np.floor(phi_sm + 0.5), 0)
    write("k,phi_smooth,phi_actual,phi_predicted\n")
    _write_rows(write, "%.10g,%.10g,%d,%d\n", ks, phi_sm, phi_act, phi_prd)
    max_gap = int(np.max(np.abs(phi_act - phi_prd)))
    if max_gap > args.tol["staircase"]:
        return [f"actual and predicted staircases differ by {max_gap} > {args.tol['staircase']:g}"]
    return []


def _add_zero_source(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--zero-file", type=Path, default=None,
                    help=f"read ordinates from this file (default: ${ZERO_FILE_ENV}, else compute)")


def _add_common(sp: argparse.ArgumentParser, handler, out_help: str,
                tolerances: dict[str, float] | None = None) -> None:
    """Attach the handler, --tol for the tolerances it checks (if any) and --out."""
    sp.set_defaults(handler=handler)
    if tolerances:
        sp.add_argument("--tol", action="append", default=[], type=_parse_tol,
                        metavar="NAME=VALUE", help="override a checked tolerance (repeatable): "
                        + ", ".join(f"{name}={value:g}" for name, value in tolerances.items()))
        sp.set_defaults(tol_defaults=tolerances)
    sp.add_argument("--out", type=Path, default=None, dest="output_path", help=out_help)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Declare every subcommand: its options, handler and checked tolerances.  Built once
    a process: parse_args copies the --tol default list and _check_args rebinds args.tol."""
    parser = argparse.ArgumentParser(
        prog="zetaprod",
        description="Log transforms of zero-counting measures for the symmetrized zeta function.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    csv_out = "write the CSV to a file instead of stdout"

    sp = sub.add_parser("xi-eval", help="evaluate xi_z and its logarithm at a point")
    sp.add_argument("--z", required=True, metavar="RE[,IM]", type=_parse_point)
    _add_common(sp, _cmd_xi_eval, "write the line to a file instead of stdout")

    sp = sub.add_parser("verify-table", help="closed forms vs adaptive quadrature")
    sp.add_argument("--rows", type=_parse_rows, default=tuple(range(1, 10)),
                    metavar="R1,R2,...", help="rows to check (default all nine)")
    sp.add_argument("--all-pairs", action="store_true",
                    help="check every catalog pair, not just the first per row")
    _add_common(sp, _cmd_verify_table, "write the lines to a file instead of stdout")

    sp = sub.add_parser("cosh-demo", help="log cosh reconstruction from the term series")
    sp.add_argument("--z", required=True, metavar="RE[,IM]", type=_parse_point)
    sp.add_argument("--terms", type=int, default=40, dest="fourier_terms")
    _add_common(sp, _cmd_cosh_demo, "write the line to a file instead of stdout",
                {"cosh": 1e-6})

    sp = sub.add_parser("find-zeros", help="scan for zero ordinates and emit a zero file")
    sp.add_argument("--t-max", type=_finite, required=True, dest="t_max")
    _add_common(sp, _cmd_find_zeros, "write the zero file here (default: print to stdout)")

    sp = sub.add_parser("count", help="actual zero count vs the counting formula")
    sp.add_argument("--t-max", type=_finite, required=True, dest="t_max")
    _add_zero_source(sp)
    _add_common(sp, _cmd_count, "write the line to a file instead of stdout", {"count": 2.0})

    sp = sub.add_parser("predict", help="predicted vs actual ordinates, CSV")
    sp.add_argument("--n", type=int, required=True, dest="n_max")
    _add_zero_source(sp)
    _add_common(sp, _cmd_predict, csv_out, {"predict-mean": 1.0, "predict-max": 2.0})

    sp = sub.add_parser("residual", help="zero-product residual against T5, CSV")
    sp.add_argument("--z", required=True, metavar="Z1,Z2,...", type=_parse_reals,
                    dest="z_samples")
    sp.add_argument("--t-max", type=_finite, required=True, dest="t_max")
    _add_zero_source(sp)
    _add_common(sp, _cmd_residual, csv_out, {"residual": 0.02})

    sp = sub.add_parser("omega", help="oscillatory remainder and running mean, CSV")
    sp.add_argument("--t-max", type=_finite, required=True, dest="t_max")
    sp.add_argument("--step", type=_finite, default=0.1, dest="grid_step")
    _add_zero_source(sp)
    _add_common(sp, _cmd_omega, csv_out, {"omega-mean": 0.25})

    sp = sub.add_parser("report", help="smooth, actual, predicted counts on a grid, CSV")
    sp.add_argument("--t-max", type=_finite, required=True, dest="t_max")
    sp.add_argument("--step", type=_finite, default=0.5, dest="grid_step")
    _add_zero_source(sp)
    _add_common(sp, _cmd_report, csv_out, {"staircase": 2.0})

    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Validate the parsed options and replace args.tol by every checked tolerance.

    An out-of-range value, or a tolerance the subcommand does not check,
    raises :class:`DomainError` like any other computation error (exit 1).
    """
    if "t_max" in args and not (A_ROOT < args.t_max <= 1000):
        raise DomainError(f"t_max must lie in (a={A_ROOT:.6g}, 1000], got {args.t_max!r}")
    if "tol" in args:
        known = args.tol_defaults
        for name, value in args.tol:
            if name not in known:
                raise DomainError(
                    f"unknown tolerance {name!r}; known: {', '.join(sorted(known))}"
                )
            if not (value > 0):
                raise DomainError(f"tolerance {name} must be positive, got {value!r}")
        args.tol = {**known, **dict(args.tol)}
    if "grid_step" in args and not (args.grid_step > 0):
        raise DomainError(f"grid step must be positive, got {args.grid_step!r}")
    if "n_max" in args and args.n_max < 1:
        raise DomainError(f"n must be >= 1, got {args.n_max!r}")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_args(args)
        # opened (and truncated) before the run, like a shell redirection
        with (contextlib.nullcontext(sys.stdout) if args.output_path is None else
              open(args.output_path, "w", encoding="utf-8", newline="\n")) as out:
            failures = args.handler(args, out.write)
    except (ZetaprodError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if "wrote" in args and args.output_path is not None:
        print(args.wrote)
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
