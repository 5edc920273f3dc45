"""Run one zetaprod benchmark workload and print its metrics.

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md): ``scan``, ``analysis``, ``pointwise``.
The untraced run (``--trace 0``) reports the end-to-end metrics, the traced
run (``--trace 1``) the per-layer ones.  Every output is checked against
mpmath and the reference zero file after the timed passes.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 0 means a result was printed;
without the package under ``src/`` the run exits 2 and prints none.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import tracing
import workloads
from workloads import BENCH_DIR, ROOT, Failure, SetupError, Workload

OUT_DIR = BENCH_DIR / "out"
#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 9
#: Passes a run makes at least, whatever --seconds says.
MIN_PASSES = 3
#: Latency samples per percentile window.
WINDOW = 2000
#: Kernel times at the reference speed (see CALIBRATION).
MIXED_REF_S = 0.004
CURVE_REF_S = 0.0034
#: Share of the run spent on calibration, at least one sample per pass.
CALIBRATION_SHARE = 0.05

#: End-to-end metrics of an untraced run and their units.
UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "accuracy_digits": "digits",
    "call_p50_us": "us", "call_p99_us": "us",
}


def _mixed_kernel() -> None:
    """Interpreter, cmath, small- and long-array numpy and formatting work."""
    short, long = np.arange(1.0, 65.0), np.arange(1.0, 513.0)
    acc = 0j
    for i in range(150):
        s = complex(0.5, 10.0 + i)
        acc += cmath.log(s) - cmath.exp(-s / 50.0) + complex(np.sum(short ** -s))
        acc += float("%.10g" % acc.real)
        if i % 4 == 0:
            acc += complex(np.sum(long ** -s))


def _curve_kernel() -> None:
    """Scalar numpy arithmetic on 0-d arrays and CSV formatting."""
    rows = []
    for i in range(350):
        x = np.asarray(20.0 + i, dtype=float)
        positive = not np.any(x <= 0)
        x = x / (2.0 * math.pi)
        value = float(x * np.log(x) - x + 0.875)
        rows.append("%.10g,%.10g,%d" % (20.0 + i, value, positive))
    ",".join(rows)


def _analysis_kernel() -> None:
    _curve_kernel()
    _mixed_kernel()


#: Per workload, a fixed kernel that runs none of the package (so no change to
#: zetaprod can move it) and its time at the reference speed.  Timings are
#: reported at that speed: measured seconds x reference / kernel time.  The
#: shared machine the baseline was taken on changes speed by up to 1.8x within
#: minutes, and code of different kinds speeds up by different amounts, so
#: each workload's kernel mirrors the kind of work in its hot path: complex
#: arithmetic and numpy sums for scan and pointwise, and for analysis 0-d
#: numpy arithmetic and CSV formatting as well.
CALIBRATION: dict[str, tuple[Callable[[], None], float]] = {
    "scan": (_mixed_kernel, MIXED_REF_S),
    "analysis": (_analysis_kernel, MIXED_REF_S + CURVE_REF_S),
    "pointwise": (_mixed_kernel, MIXED_REF_S),
}


def calibration_s(workload: str) -> float:
    kernel, _ = CALIBRATION[workload]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def window_percentile(latencies_ns: list[int], p: float) -> float:
    """The p-th percentile of each window of WINDOW consecutive samples, median over windows.

    A window spans a fraction of a second, so the median follows the
    program rather than how much of the run a slow spell of the shared
    machine happened to cover.  Each window leaves more than 10 samples
    beyond its p99.
    """
    n = max(1, len(latencies_ns) // WINDOW)
    size = len(latencies_ns) // n
    values = []
    for i in range(n):
        window = sorted(latencies_ns[i * size:(i + 1) * size])
        values.append(window[min(size - 1, int(size * p / 100))])
    return float(statistics.median(values))


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of fresh processes that import, load and warm up:
    (as measured, at the reference speed).

    Each process is scaled by the calibration samples taken just before and
    just after it, since starting a process is too short to average out the
    machine's changes of speed.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    reference = CALIBRATION[workload][1]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = [calibration_s(workload) for _ in range(2)]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SetupError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        around = before + [calibration_s(workload) for _ in range(2)]
        raw.append(elapsed)
        scaled.append(elapsed * reference / statistics.median(around))
    return statistics.median(raw), statistics.median(scaled)


@dataclass
class Outcomes:
    """The first pass's outputs and, per task, how many later passes differed.

    Later outputs are compared and dropped, so the peak RSS is that of one
    pass rather than of every pass kept.
    """

    first: list | None = None
    changed: list[int] = field(default_factory=list)
    passes: int = 0

    def add(self, outputs: list) -> None:
        self.passes += 1
        if self.first is None:
            self.first, self.changed = outputs, [0] * len(outputs)
            return
        for i, (out, ref) in enumerate(zip(outputs, self.first)):
            self.changed[i] += bool(out != ref)


@dataclass
class Measurement:
    pass_seconds: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    tasks: Outcomes = field(default_factory=Outcomes)
    probe: Outcomes = field(default_factory=Outcomes)
    latencies_ns: list[int] = field(default_factory=list)  # untraced, in time order
    calibration: list[float] = field(default_factory=list)  # calibration_s() samples


def measure(workload: Workload, api, seconds: float, tracer=None, pkg=None) -> Measurement:
    """Repeat passes for ``seconds``; with a tracer, every second pass is traced.

    Untraced runs follow each pass with the workload's latency probe, if it
    has one, so the probe's samples span the run as the passes do.
    """
    m = Measurement()
    needed = MIN_PASSES + (tracer is not None)
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(m.pass_seconds) % 2 == 1
        if trace_this:
            with tracer.installed(pkg, api):
                result = workloads.run_pass(workload.tasks, api)
        else:
            result = workloads.run_pass(workload.tasks, api)
            m.latencies_ns += result.latencies_ns
        m.pass_seconds.append(result.seconds)
        m.traced.append(trace_this)
        m.tasks.add(result.outputs)
        if tracer is None and workload.probe:
            probe = workloads.run_pass(workload.probe, api)
            m.latencies_ns += probe.latencies_ns
            m.probe.add(probe.outputs)
            del probe
        seconds_this = result.seconds
        del result  # hold one pass's outputs at a time
        spent = 0.0
        while tracer is None and (not spent or spent < CALIBRATION_SHARE * seconds_this):
            m.calibration.append(calibration_s(workload.name))
            spent += m.calibration[-1]
        done = len(m.pass_seconds)
        elapsed = time.perf_counter() - start
        if done >= needed and elapsed * (done + 1) / done > seconds:
            return m


def tally(tasks, outcomes: Outcomes, reference, check_every: int = 1) -> tuple[int, int, float, list[str]]:
    """(attempted, failed, accuracy digits, problems) of ``tasks`` over all passes.

    The oracle checks every ``check_every``-th task of the first pass; any
    output of a later pass that differs from the first pass is a failure.
    """
    import oracle

    problems: list[str] = []
    failed = 0
    verdicts = []
    for i, (task, out, changed) in enumerate(zip(tasks, outcomes.first, outcomes.changed)):
        verdict = oracle.check(task.kind, task.args, out, reference) \
            if i % check_every == 0 else oracle.Verdict()
        verdicts.append(verdict)
        problems += [f"{task.kind}{task.args!r:.80}: {p}" for p in verdict.problems]
        if changed:
            problems.append(f"{task.kind}: {changed} passes gave an output unlike the first")
        failed += outcomes.passes if not verdict.ok or isinstance(out, Failure) else changed
    return len(tasks) * outcomes.passes, failed, oracle.min_digits(verdicts), problems


def machine_info(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__, "seed": seed}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload, api, pkg = workloads.set_up(name, seed)
    tracer = tracing.Tracer() if trace else None
    m = measure(workload, api, seconds, tracer, pkg)
    wall = statistics.median(t for t, traced in zip(m.pass_seconds, m.traced) if not traced)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import oracle  # mpmath only after the RSS reading

    _, reference = oracle.read_reference(workloads.REFERENCE)
    attempted, failed, acc, problems = tally(workload.tasks, m.tasks, reference)
    if m.probe.passes:
        # mpmath needs about 15 ms per xi at large height: check a sample
        every = 1 if name == "analysis" else 100
        counts = tally(workload.probe, m.probe, reference, every)
        attempted, failed = attempted + counts[0], failed + counts[1]
        acc = min(acc, counts[2])
        problems += counts[3]
    record: dict = {"workload": name, "machine": machine_info(seed),
                    "pass_seconds": m.pass_seconds, "traced": m.traced}

    if trace:
        bytes_out = sum(len(out.out.encode()) for out in m.tasks.first
                        if isinstance(out, workloads.CliResult))
        metrics = tracing.layer_metrics(tracer, sum(m.traced), bytes_out)
        traced_wall = statistics.median(t for t, traced in zip(m.pass_seconds, m.traced) if traced)
        metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.csv")
    else:
        setup, setup_scaled = time_setup(name, seed)
        raw = {
            "wall_s": wall,
            "setup_s": setup,
            "call_p50_us": window_percentile(m.latencies_ns, 50) / 1e3,
            "call_p99_us": window_percentile(m.latencies_ns, 99) / 1e3,
        }
        speed = CALIBRATION[name][1] / statistics.median(m.calibration)
        metrics = {
            "wall_s": wall * speed,
            "setup_s": setup_scaled,
            "peak_rss_mb": rss_mb,
            "accuracy_digits": acc,
            "call_p50_us": raw["call_p50_us"] * speed,
            "call_p99_us": raw["call_p99_us"] * speed,
        }
        record.update(raw_timings=raw, speed=speed, call_samples=len(m.latencies_ns))
        record["fail_frac"] = failed / attempted
    record.update(correct=failed == 0 and not problems, attempted=attempted,
                  failed=failed, problems=problems[:20], metrics=metrics)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            workloads.set_up(args.workload, args.seed)
            return 0
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# {args.workload} seed={args.seed} machine={json.dumps(record['machine'])}")
    for problem in record["problems"]:
        print(f"# FAIL {problem}")
    if not args.trace:
        print(f"# fail_frac {record['fail_frac']:.6g} 1 ({record['failed']}/{record['attempted']})")
        print(f"# call latency samples {record['call_samples']}")
        print(f"# measured before calibration: {json.dumps(record['raw_timings'])}, "
              f"speed factor {record['speed']:.4f}")
    units = tracing.UNITS if args.trace else UNITS
    metrics = {key: {"value": value, "unit": units[key]} for key, value in record["metrics"].items()}
    for key, m in metrics.items():
        print(f"# {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
