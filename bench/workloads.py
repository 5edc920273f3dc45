"""The three benchmark workloads: seeded inputs, set-up, warm-up and one pass.

A workload is a fixed list of tasks generated from the seed.  One pass runs
every task once, in order, in this process (one closed-loop client, no
threads, ``jobs=1``).  Passes are repeated for the run's duration and every
pass must give the same outputs, so the oracle checks the first pass only
and later passes are compared with it.

The benchmark calls the package only through :class:`Api`, so a traced run
can swap in timing wrappers at the benchmark's own call sites.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "data" / "zeros_t1000.txt"

WORKLOADS = ("scan", "analysis", "pointwise")

#: Scalar calls per latency probe on ``scan`` and ``analysis``; leaves at
#: least ten samples beyond p99.
PROBE_CALLS = 2000


class SetupError(RuntimeError):
    """The checkout does not hold the package the benchmark measures."""


def load_package() -> SimpleNamespace:
    """Import zetaprod from this checkout's ``src/`` and return its modules."""
    if not (SRC / "zetaprod" / "__init__.py").is_file():
        raise SetupError(f"no zetaprod package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zetaprod
    from zetaprod import cli, specfun, transforms, zerodist

    if Path(zetaprod.__file__).resolve().parent != SRC / "zetaprod":
        raise SetupError(f"imported zetaprod from {zetaprod.__file__}, not from {SRC}")
    return SimpleNamespace(cli=cli, specfun=specfun, transforms=transforms, zerodist=zerodist)


class Api(SimpleNamespace):
    """The package functions the benchmark calls, looked up at call time."""

    @classmethod
    def of(cls, pkg: SimpleNamespace) -> "Api":
        return cls(
            cli_main=pkg.cli.main,
            zeta=pkg.specfun.zeta,
            log_gamma=pkg.specfun.log_gamma,
            xi_z=pkg.specfun.xi_z,
            log_xi_z=pkg.specfun.log_xi_z,
            transform_numeric=pkg.transforms.transform_numeric,
            phi_smooth=pkg.zerodist.phi_smooth,
            predict_zeros=pkg.zerodist.predict_zeros,
            sawtooth=pkg.transforms.DensityForm(pkg.transforms.DensityKind.SAWTOOTH_PERIODIC),
        )


@dataclass(frozen=True)
class CliResult:
    argv: tuple[str, ...]
    code: int
    out: str
    err: str


@dataclass(frozen=True)
class Failure:
    """A task that raised instead of returning."""

    error: str


def run_cli(api: Api, argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = api.cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(tuple(argv), int(code), out.getvalue(), err.getvalue())


@dataclass(frozen=True)
class Task:
    """One unit of work; ``args`` are the inputs the oracle needs."""

    kind: str
    args: tuple
    call: Callable[[Api], Any]
    latency: bool = False  # per-call latency feeds call_p50_us / call_p99_us


def _cli_task(kind: str, argv: list[str], **args) -> Task:
    return Task(kind, tuple(sorted(args.items())), lambda api: run_cli(api, argv))


def _scalar_task(fn: str, x: complex) -> Task:
    return Task(fn, (x,), lambda api: getattr(api, fn)(x), latency=True)


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    warmups: list[Task]
    probe: list[Task] = field(default_factory=list)


def _strata(rng: random.Random, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [0, 1)."""
    return [(i + rng.random()) / n for i in range(n)]


def _scan(rng: random.Random) -> Workload:
    t_max = round(rng.uniform(980.0, 1000.0), 2)
    tasks = [_cli_task("find-zeros", ["find-zeros", "--t-max", f"{t_max:.2f}"], t_max=t_max)]
    warmups = [_cli_task("find-zeros", ["find-zeros", "--t-max", "20"], t_max=20.0)]
    # The scan's kernel is xi on the critical line; probe it one point at a time.
    probe = [_scalar_task("xi_z", complex(0.0, _within(10.0, t_max, u)))
             for u in _strata(rng, PROBE_CALLS)]
    return Workload("scan", tasks, warmups, probe)


def _analysis(rng: random.Random) -> Workload:
    ref = str(REFERENCE)
    src = ["--zero-file", ref]
    count_t = round(rng.uniform(100.0, 1000.0), 2)
    n = rng.randint(550, 640)
    zs = sorted(round(rng.uniform(50.0, 500.0), 2) for _ in range(4))
    z_arg = ",".join(f"{z:.2f}" for z in zs)
    tasks = [
        _cli_task("count", ["count", "--t-max", f"{count_t:.2f}", *src], t_max=count_t),
        _cli_task("predict", ["predict", "--n", str(n), *src], n=n),
        _cli_task("residual", ["residual", "--z", z_arg, "--t-max", "1000", *src], z=tuple(zs)),
        _cli_task("omega", ["omega", "--t-max", "1000", "--step", "0.01", *src],
                  t_max=1000.0, step=0.01),
        _cli_task("report", ["report", "--t-max", "1000", "--step", "0.05", *src],
                  t_max=1000.0, step=0.05),
    ]
    warmups = [
        _cli_task("count", ["count", "--t-max", "100", *src]),
        _cli_task("predict", ["predict", "--n", "5", *src]),
        _cli_task("residual", ["residual", "--z", "50", "--t-max", "100", *src]),
        _cli_task("omega", ["omega", "--t-max", "100", *src]),
        _cli_task("report", ["report", "--t-max", "100", *src]),
    ]
    # predict_zeros bisects the smooth curve one scalar call at a time.  A
    # 2% share of one-level predictions (about 40 curve evaluations each)
    # holds p99, so that it measures the program rather than the machine's
    # jitter on identical 10 us calls.
    levels = PROBE_CALLS // 50
    probe = [_scalar_task("phi_smooth", _within(20.0, 1000.0, u))
             for u in _strata(rng, PROBE_CALLS - levels)]
    probe += [Task("predict_zeros", (1,), lambda api: tuple(api.predict_zeros(1)), latency=True)
              for _ in range(levels)]
    rng.shuffle(probe)
    return Workload("analysis", tasks, warmups, probe)


def _within(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _signed(rng: random.Random, lo: float, hi: float, u: float) -> float:
    return rng.choice((-1.0, 1.0)) * _within(lo, hi, u)


# (function, calls per pass, point from (rng, u, v)).  u and v each run over
# one stratum of [0, 1) per call, in independent orders (a Latin square), and
# set the two coordinates of the point, so every seed gets the same spread of
# costs.  The shares are fixed for the same reason; the small-argument
# log-gamma share (about 12%) holds p99.
_POINTWISE_MIX: tuple[tuple[str, int, Callable[[random.Random, float, float], complex]], ...] = (
    # left half-plane: reflection through the functional equation
    ("zeta", 40, lambda r, u, v: complex(_within(-10.0, -0.5, v), _signed(r, 1.0, 1000.0, u))),
    # critical strip off the line, |Im s| up to 1000
    ("zeta", 60, lambda r, u, v: complex(_within(0.05, 0.45, v) + 0.5 * r.randint(0, 1),
                                          _signed(r, 1.0, 1000.0, u))),
    # neighbourhood of the pole at s = 1
    ("zeta", 20, lambda r, u, v: 1 + cmath.rect(_within(1e-3, 0.1, u), _within(-math.pi, math.pi, v))),
    ("zeta", 20, lambda r, u, v: complex(_within(1.5, 10.0, v), _signed(r, 0.0, 1000.0, u))),
    # small arguments: the recurrence shift plus the nested Stirling series
    ("log_gamma", 40, lambda r, u, v: complex(_within(0.05, 3.0, u), _within(-3.0, 3.0, v))),
    ("log_gamma", 40, lambda r, u, v: complex(_within(3.0, 1000.0, v), _signed(r, 0.0, 1000.0, u))),
    ("xi_z", 60, lambda r, u, v: complex(_signed(r, 0.1, 6.0, v), _signed(r, 0.0, 800.0, u))),
    ("log_xi_z", 40, lambda r, u, v: complex(_within(0.55, 10.0, v), _signed(r, 0.0, 900.0, u))),
)

SAWTOOTH_PER_PASS = 6
COSH_PER_PASS = 2


def _pointwise(rng: random.Random) -> Workload:
    tasks = []
    for fn, count, gen in _POINTWISE_MIX:
        vs = _strata(rng, count)
        rng.shuffle(vs)
        tasks += [_scalar_task(fn, gen(rng, u, v)) for u, v in zip(_strata(rng, count), vs)]
    rng.shuffle(tasks)
    tasks.append(_cli_task("verify-table", ["verify-table", "--all-pairs"]))
    for u in _strata(rng, SAWTOOTH_PER_PASS):
        z = cmath.rect(_within(4.0, 8.0, u), rng.uniform(-0.5, 0.5))
        tasks.append(Task("sawtooth", (z,), lambda api, z=z: api.transform_numeric(api.sawtooth, z)))
    for _ in range(COSH_PER_PASS):
        z = complex(round(rng.uniform(0.5, 5.0), 3), round(rng.uniform(-3.0, 3.0), 3))
        tasks.append(_cli_task("cosh-demo", ["cosh-demo", "--z", f"{z.real},{z.imag}"], z=z))
    warmups = [
        _scalar_task("zeta", complex(-3.0, 20.0)),
        _scalar_task("log_gamma", complex(2.3, 0.0)),
        _scalar_task("xi_z", complex(0.3, 20.0)),
        _scalar_task("log_xi_z", complex(2.0, 20.0)),
        Task("sawtooth", (5.0,), lambda api: api.transform_numeric(api.sawtooth, 5.0)),
        _cli_task("verify-table", ["verify-table", "--rows", "1"]),
        _cli_task("cosh-demo", ["cosh-demo", "--z", "1,1"]),
    ]
    return Workload("pointwise", tasks, warmups)


def make_workload(name: str, seed: int) -> Workload:
    makers = {"scan": _scan, "analysis": _analysis, "pointwise": _pointwise}
    rng = random.Random(f"zetaprod-bench:{name}:{seed}")
    return makers[name](rng)


def call(task: Task, api: Api) -> Any:
    try:
        return task.call(api)
    except Exception as exc:  # a failing task is counted, not fatal
        return Failure(f"{type(exc).__name__}: {exc}")


def set_up(name: str, seed: int) -> tuple[Workload, Api, SimpleNamespace]:
    """Import the package, make the inputs and warm up; what setup_s times."""
    pkg = load_package()
    api = Api.of(pkg)
    workload = make_workload(name, seed)
    for task in workload.warmups:
        result = call(task, api)
        if isinstance(result, Failure) or getattr(result, "code", 0) != 0:
            raise SetupError(f"warm-up {task.kind} failed: {result}")
    return workload, api, pkg


@dataclass
class PassResult:
    seconds: float
    outputs: list[Any]
    latencies_ns: list[int]


def run_pass(tasks: list[Task], api: Api) -> PassResult:
    outputs: list[Any] = []
    latencies: list[int] = []
    clock = time.perf_counter_ns
    start = clock()
    for task in tasks:
        t0 = clock()
        outputs.append(call(task, api))
        if task.latency:
            latencies.append(clock() - t0)
    return PassResult((clock() - start) / 1e9, outputs, latencies)
