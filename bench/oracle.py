"""Independent checks of every benchmark output, with mpmath as the oracle.

Nothing here imports zetaprod: outputs are parsed from the CLI text or taken
as returned numbers, and compared with values computed from the committed
reference zero file and mpmath.  Each check returns a :class:`Verdict` with
the accuracy it saw, as -log10 of the worst relative error.  The benchmark
runs these only after its timed passes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

import mpmath

#: Largest accepted |computed - reference| for a zero ordinate: the scan
#: bisects to 1e-9 and prints ten decimals.
ORDINATE_TOL = 5e-9
#: Largest accepted relative error of a value printed with ten significant
#: digits ("%.10g"), with room for the computation's own error.
PRINTED_REL_TOL = 2e-9
#: Largest accepted relative error of a special-function value returned as
#: a double.
SCALAR_REL_TOL = 1e-9
#: Below this modulus a double xi value has underflowed; it must then be
#: tiny too, and carries no digits.
UNDERFLOW = 1e-290
#: Rows sampled from each long CSV output.
SAMPLED_ROWS = 64
#: Digits credited to an exact match.
EXACT_DIGITS = 17.0
DPS = 20


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    digits: float = math.inf  # min over checked values; inf if none carried digits

    @property
    def ok(self) -> bool:
        return not self.problems

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def value(self, what: str, got: complex, want: Any, rel_tol: float, scale: float = 0.0) -> None:
        """Compare one value with its reference and record its digits.

        The error is relative to max(|want|, scale); a scale keeps a value
        that passes through zero from counting as infinitely inaccurate.
        """
        want = complex(want)
        err = abs(complex(got) - want) / max(abs(want), scale)
        self.digits = min(self.digits, digits(err))
        if not err <= rel_tol:
            self.fail(f"{what}: got {got!r}, want {want!r} (relative error {err:.3g})")


def digits(rel_err: float) -> float:
    return EXACT_DIGITS if rel_err == 0 else min(EXACT_DIGITS, -math.log10(rel_err))


def read_reference(path: Path) -> tuple[float, list[float]]:
    """(t_max, ordinates) of a zero file, parsed without zetaprod."""
    t_max = None
    ordinates = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("# t_max="):
            t_max = float(line.split("=", 1)[1])
        elif line and not line.startswith("#"):
            ordinates.append(float(line))
    if t_max is None:
        raise ValueError(f"{path} has no '# t_max=' header")
    return t_max, ordinates


# ------------------------------------------------------------ smooth curve


def phi_mp(k) -> mpmath.mpf:
    """(k/2pi) ln(k/2pi) - k/2pi + 7/8."""
    x = mpmath.mpf(k) / (2 * mpmath.pi)
    return x * mpmath.log(x) - x + mpmath.mpf(7) / 8


def _phi_inverse(level, branch: int = 0) -> mpmath.mpf:
    """k with phi(k) = level, in closed form through Lambert W."""
    c = (mpmath.mpf(level) - mpmath.mpf(7) / 8) / mpmath.e
    return 2 * mpmath.pi * mpmath.exp(1 + mpmath.lambertw(c, branch).real)


def predicted_mp(n: int) -> mpmath.mpf:
    """Where the smooth curve crosses n - 1/2 (the n-th predicted ordinate)."""
    return _phi_inverse(mpmath.mpf(n) - 0.5)


def curve_root_mp() -> mpmath.mpf:
    """The root a = 9.6769... of the smooth curve."""
    return _phi_inverse(0)


# -------------------------------------------------------- CLI text parsing


def _cli_ok(v: Verdict, result: Any) -> bool:
    code = getattr(result, "code", None)
    if code is None:
        v.fail(f"task raised: {getattr(result, 'error', result)!r}")
        return False
    if code != 0:
        v.fail(f"exit code {code}: {result.err.strip()[:200]}")
        return False
    return True


def _fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split())


def _csv(v: Verdict, text: str, header: str, skip_comments: bool = False) -> list[list[str]]:
    lines = text.splitlines()
    if skip_comments:
        lines = [line for line in lines if not line.startswith("#")]
    if not lines or lines[0] != header:
        v.fail(f"header is {lines[:1]!r}, want {header!r}")
        return []
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    bad = [i for i, row in enumerate(rows) if len(row) != width]
    if bad:
        v.fail(f"{len(bad)} rows do not have {width} fields, first at row {bad[0] + 1}")
        return []
    return rows


def _sample(n: int) -> list[int]:
    step = max(1, n // SAMPLED_ROWS)
    return sorted({*range(0, n, step), n - 1}) if n else []


# ------------------------------------------------------------ the checks


def check_scan(result: Any, t_max: float, reference: list[float]) -> Verdict:
    """find-zeros output: the exact zero count and every ordinate."""
    v = Verdict()
    if not _cli_ok(v, result):
        return v
    header = [line for line in result.out.splitlines() if line.startswith("# t_max=")]
    if header != [f"# t_max={t_max:.10g}"]:
        v.fail(f"t_max header is {header!r}, want t_max={t_max:.10g}")
    got = [float(line) for line in result.out.splitlines() if line and not line.startswith("#")]
    want = reference[: bisect.bisect_left(reference, t_max)]
    if len(got) != len(want):
        v.fail(f"found {len(got)} zeros below {t_max:g}, reference has {len(want)}")
        return v
    for i, (g, w) in enumerate(zip(got, want)):
        v.digits = min(v.digits, digits(abs(g - w) / w))
        if not abs(g - w) <= ORDINATE_TOL:
            v.fail(f"zero {i + 1}: got {g!r}, reference {w!r}")
    return v


def _check_count(v: Verdict, out: str, t_max: float, reference: list[float]) -> None:
    f = _fields(out.strip())
    actual, formula, diff = int(f["actual"]), float(f["formula"]), float(f["diff"])
    want = bisect.bisect_right(reference, t_max)
    if actual != want:
        v.fail(f"count below {t_max:g} is {actual}, reference has {want}")
    v.value("count formula", formula, phi_mp(t_max), PRINTED_REL_TOL)
    if not abs(diff - (actual - formula)) <= PRINTED_REL_TOL * max(1.0, abs(formula)):
        v.fail(f"diff {diff!r} is not actual - formula")


def _check_predict(v: Verdict, out: str, n: int, reference: list[float]) -> None:
    rows = _csv(v, out, "n,predicted_k,actual_k,deviation")
    if len(rows) != n:
        v.fail(f"predict printed {len(rows)} rows, want {n}")
        return
    for i in _sample(n):
        idx, pred, actual, dev = int(rows[i][0]), *map(float, rows[i][1:])
        if idx != i + 1:
            v.fail(f"row {i + 1} is numbered {idx}")
        v.value(f"predicted k_{i + 1}", pred, predicted_mp(i + 1), PRINTED_REL_TOL)
        v.value(f"actual k_{i + 1}", actual, reference[i], PRINTED_REL_TOL)
        if not abs(dev - (actual - pred)) <= PRINTED_REL_TOL * actual:
            v.fail(f"row {i + 1}: deviation {dev!r} is not actual - predicted")


def _check_residual(v: Verdict, out: str, zs: tuple[float, ...]) -> None:
    const = [line for line in out.splitlines() if line.startswith("# constant_derived=")]
    if len(const) != 1:
        v.fail("residual output lacks its '# constant_derived=' line")
        return
    a = curve_root_mp()
    xi0 = (mpmath.gamma(mpmath.mpf(5) / 4) * mpmath.pi ** -0.25
           * (-0.5) * mpmath.zeta(0.5))
    t5 = (a / mpmath.pi) * (2 - mpmath.log(a) + mpmath.log(2 * mpmath.pi)) - 1.75 * mpmath.log(a)
    v.value("constant_derived", float(const[0].split("=", 1)[1]),
            mpmath.log(mpmath.pi / 2) / 4 - mpmath.log(xi0) - t5, PRINTED_REL_TOL)
    rows = _csv(v, out, "z,residual,tail_estimate", skip_comments=True)
    if [float(row[0]) for row in rows] != list(zs):
        v.fail(f"residual rows are at z={[row[0] for row in rows]}, want {list(zs)}")
    if not all(math.isfinite(float(x)) for row in rows for x in row):
        v.fail("residual printed a non-finite value")


def _check_omega(v: Verdict, out: str, t_max: float, step: float, reference: list[float]) -> None:
    rows = _csv(v, out, "k,omega,running_mean")
    a = curve_root_mp()
    n = int(mpmath.floor((t_max - a) / step))
    want_rows = n + 1 + (a + n * step < t_max)
    if len(rows) != want_rows:
        v.fail(f"omega printed {len(rows)} rows, want {want_rows}")
        return
    for i in _sample(len(rows)):
        k, omega, mean = map(float, rows[i])
        # Omega = N(k) - phi(k); check the phi it implies.  phi is a
        # difference of terms of size about 1 near its root, hence the scale.
        v.value(f"omega at k={k:g}", bisect.bisect_right(reference, k) - omega, phi_mp(k),
                PRINTED_REL_TOL, scale=1.0)
        if not math.isfinite(mean):
            v.fail(f"running mean at k={k:g} is {mean!r}")
    if float(rows[-1][0]) != t_max:
        v.fail(f"omega grid ends at {rows[-1][0]}, want {t_max:g}")


def _check_report(v: Verdict, out: str, t_max: float, step: float, reference: list[float]) -> None:
    rows = _csv(v, out, "k,phi_smooth,phi_actual,phi_predicted")
    want_rows = int(round(t_max / step))
    if len(rows) != want_rows:
        v.fail(f"report printed {len(rows)} rows, want {want_rows}")
        return
    a = curve_root_mp()
    for i in _sample(len(rows)):
        k, smooth = float(rows[i][0]), float(rows[i][1])
        actual, predicted = int(rows[i][2]), int(rows[i][3])
        phi = phi_mp(k)
        v.value(f"phi_smooth at k={k:g}", smooth, phi, PRINTED_REL_TOL, scale=1.0)
        if actual != bisect.bisect_right(reference, k):
            v.fail(f"phi_actual at k={k:g} is {actual}")
        level = phi + 0.5
        if abs(level - mpmath.nint(level)) < 1e-8:
            continue  # k sits on a predicted ordinate; either count is right
        want = int(mpmath.floor(level)) if k > a else 0
        if predicted != want:
            v.fail(f"phi_predicted at k={k:g} is {predicted}, want {want}")


def check_analysis(kind: str, args: dict, result: Any, reference: list[float]) -> Verdict:
    v = Verdict()
    if not _cli_ok(v, result):
        return v
    try:
        if kind == "count":
            _check_count(v, result.out, args["t_max"], reference)
        elif kind == "predict":
            _check_predict(v, result.out, args["n"], reference)
        elif kind == "residual":
            _check_residual(v, result.out, args["z"])
        elif kind == "omega":
            _check_omega(v, result.out, args["t_max"], args["step"], reference)
        elif kind == "report":
            _check_report(v, result.out, args["t_max"], args["step"], reference)
        else:
            v.fail(f"no check for analysis task {kind!r}")
    except (KeyError, ValueError, IndexError) as exc:
        v.fail(f"unparseable {kind} output: {type(exc).__name__}: {exc}")
    return v


# ------------------------------------------------------------- pointwise


def scalar_reference(fn: str, x: complex) -> tuple[mpmath.mpc, float]:
    """(value, scale): the error of a value is taken relative to max(|value|, scale)."""
    x = mpmath.mpc(x)
    if fn == "zeta":
        return mpmath.zeta(x), 0.0
    if fn == "log_gamma":
        return mpmath.loggamma(x), 0.0
    if fn == "phi_smooth":
        return phi_mp(x.real), 1.0
    s = x + 0.5
    if fn == "xi_z":
        # Near a zero on the line xi is tiny next to its gamma factor; the
        # factor (taken where xi is evaluated, re s >= 1/2) is the scale.
        w = s if s.real >= 0.5 else 1 - s
        factor = mpmath.gamma(w / 2 + 1) * mpmath.pi ** (-w / 2) * (w - 1)
        return factor * mpmath.zeta(w), float(abs(factor))
    if fn == "log_xi_z":
        return (-mpmath.log(2) + mpmath.loggamma(x / 2 + 0.25) - (x / 2 + 0.25) * mpmath.log(mpmath.pi)
                + mpmath.log(x * x - 0.25) + mpmath.log(mpmath.zeta(s))), 0.0
    raise ValueError(f"no reference for {fn!r}")


def check_scalar(fn: str, x: complex, got: Any) -> Verdict:
    v = Verdict()
    if not isinstance(got, (int, float, complex)):
        v.fail(f"{fn}({x}) raised: {getattr(got, 'error', got)!r}")
        return v
    want, scale = scalar_reference(fn, x)
    if max(abs(want), scale) < UNDERFLOW:
        if not abs(got) < 1e3 * UNDERFLOW:
            v.fail(f"{fn}({x}) = {got!r}, want {complex(want)!r}")
        return v
    v.value(f"{fn}({x})", got, want, SCALAR_REL_TOL, scale)
    return v


def check_predicted(n: int, got: Any) -> Verdict:
    """predict_zeros(n): the n crossings of the smooth curve."""
    v = Verdict()
    if not hasattr(got, "__len__") or len(got) != n:
        v.fail(f"predict_zeros({n}) gave {getattr(got, 'error', got)!r}")
        return v
    for i, k in enumerate(got, start=1):
        # bisected to 1e-9 absolute
        v.value(f"predict_zeros({n})[{i - 1}]", float(k), predicted_mp(i), SCALAR_REL_TOL)
    return v


def sawtooth_reference(z: complex) -> mpmath.mpc:
    """Transform of the unit-period sawtooth, summed period by period.

    On [n - 1/2, n + 1/2] the density is n - k, whose integral against
    2 z^2 / (k (k^2 + z^2)) = 2/k - 2k / (k^2 + z^2) has a closed form.
    """
    z = mpmath.mpc(z)

    def period(n):
        lo, hi = n - mpmath.mpf(0.5), n + mpmath.mpf(0.5)
        return (2 * n * mpmath.log(hi / lo)
                - n * mpmath.log((hi * hi + z * z) / (lo * lo + z * z))
                - 2 * z * (mpmath.atan(hi / z) - mpmath.atan(lo / z)))

    return -2 * z * mpmath.atan(1 / (2 * z)) + mpmath.nsum(period, [1, mpmath.inf])


def check_sawtooth(z: complex, got: Any) -> Verdict:
    v = Verdict()
    if not hasattr(got, "abs_error_estimate"):
        v.fail(f"sawtooth transform at z={z} raised: {getattr(got, 'error', got)!r}")
        return v
    want = complex(sawtooth_reference(z))
    value = complex(got.value)
    v.digits = digits(abs(value - want) / abs(want))
    if not abs(value - want) <= got.abs_error_estimate:
        v.fail(f"sawtooth transform at z={z}: {value!r} is {abs(value - want):.3g} from "
               f"{want!r}, beyond its error estimate {got.abs_error_estimate:.3g}")
    return v


_ROW_DENSITY = {
    1: lambda k: 1,
    2: lambda k: k,
    3: mpmath.log,
    4: lambda k: k * mpmath.log(k),
    5: lambda k: mpmath.log(k) / k,
    6: lambda k: k * mpmath.sqrt(k),
    7: lambda k: k * mpmath.sqrt(k) * mpmath.log(k),
    8: lambda k: 1 / k,
    9: lambda k: 1 / (k * k),
}


def row_transform_mp(row: int, a: float, z: complex) -> mpmath.mpc:
    """The transform of catalog row ``row`` by mpmath quadrature."""
    z = mpmath.mpc(z)
    lo = mpmath.mpf(0) if row in (6, 7) else mpmath.mpf(a)
    r = abs(z)
    cuts = sorted({lo, *(c for c in (r / 2, r, 4 * r) if c > lo)})
    density = _ROW_DENSITY[row]
    return mpmath.quad(lambda k: density(k) * 2 * z * z / (k * (k * k + z * z)), [*cuts, mpmath.inf])


def check_verify_table(result: Any) -> Verdict:
    v = Verdict()
    if not _cli_ok(v, result):
        return v
    lines = result.out.splitlines()
    if len(lines) != 45:
        v.fail(f"verify-table --all-pairs printed {len(lines)} lines, want 45")
    for line in lines:
        try:
            f = _fields(line)
            row, a, z = int(f["row"]), float(f["a"]), complex(f["z"])
            closed, numeric, tol = complex(f["closed"]), complex(f["numeric"]), float(f["tol"])
        except (KeyError, ValueError) as exc:
            v.fail(f"unparseable verify-table line {line!r}: {exc}")
            continue
        if f["agree"] != "true":
            v.fail(f"row {row} at a={a:g}, z={z} does not agree")
        want = complex(row_transform_mp(row, a, z))
        v.value(f"row {row} numeric at a={a:g}, z={z}", numeric, want, max(PRINTED_REL_TOL, tol / abs(want)))
        if not abs(closed - want) <= tol:
            v.fail(f"row {row} closed form at a={a:g}, z={z} is {abs(closed - want):.3g} from quadrature")
    return v


def check_cosh(z: complex, result: Any) -> Verdict:
    v = Verdict()
    if not _cli_ok(v, result):
        return v
    try:
        f = _fields(result.out.strip())
        got = [complex(f["reconstructed"]), complex(f["exact"])]
    except (KeyError, ValueError) as exc:
        v.fail(f"unparseable cosh-demo output {result.out!r}: {exc}")
        return v
    want = complex(mpmath.log(mpmath.cosh(mpmath.mpc(z))))
    for name, value in zip(("reconstructed", "exact"), got):
        # compare modulo 2 pi i: both sides are logarithms
        turns = round((value - want).imag / (2 * math.pi))
        v.value(f"cosh-demo {name} at z={z}", value - 2j * math.pi * turns, want, PRINTED_REL_TOL)
    return v


def check(kind: str, args: tuple, output: Any, reference: list[float]) -> Verdict:
    """Dispatch one task's output to its check; ``args`` as in workloads.Task."""
    with mpmath.workdps(DPS):
        if kind == "find-zeros":
            return check_scan(output, dict(args)["t_max"], reference)
        if kind in ("count", "predict", "residual", "omega", "report"):
            return check_analysis(kind, dict(args), output, reference)
        if kind in ("zeta", "log_gamma", "xi_z", "log_xi_z", "phi_smooth"):
            return check_scalar(kind, args[0], output)
        if kind == "predict_zeros":
            return check_predicted(args[0], output)
        if kind == "sawtooth":
            return check_sawtooth(args[0], output)
        if kind == "verify-table":
            return check_verify_table(output)
        if kind == "cosh-demo":
            return check_cosh(dict(args)["z"], output)
    return Verdict([f"no check for task kind {kind!r}"])


def min_digits(verdicts: Iterable[Verdict]) -> float:
    return min((v.digits for v in verdicts), default=math.inf)
