"""Spans around the calls one zetaprod module makes into another.

Only traced passes install the wrappers; untraced passes run the package
unmodified.  Each wrapper patches a name where the calling module binds it
(``zerodist._log_xi_terms``, ``cli.find_zeros``, ...) or an entry of the
benchmark's own :class:`~workloads.Api`, and records one span
``(id, parent id, name, start ns, end ns)`` per call.  Spans stay in memory
until the run ends.  A span's name starts with the layer it measures:
``specfun``, ``transforms``, ``_quad``, ``zerodist`` or ``cli``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator

# (object that binds the name, attribute, span name).  The object is a
# module name under zetaprod, "ZeroList" for the class, or "api".
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("zerodist", "_log_xi_terms", "specfun.log_xi_terms"),
    ("zerodist", "_bisect_sign_change", "zerodist.refine"),
    ("zerodist", "count_zeros_contour", "transforms.count_zeros_contour"),
    ("zerodist", "integrate", "_quad.integrate"),
    ("zerodist", "phi_smooth", "zerodist.phi_smooth"),
    ("zerodist", "transform_step", "transforms.transform_step"),
    ("zerodist", "xi_z", "specfun.xi_z"),
    ("zerodist", "residual", "zerodist.residual"),
    ("ZeroList", "read", "zerodist.zerolist_read"),
    ("transforms", "integrate", "_quad.integrate"),
    ("transforms", "transform_numeric", "transforms.transform_numeric"),
    ("cli", "xi_z", "specfun.xi_z"),
    ("cli", "log_xi_z", "specfun.log_xi_z"),
    ("cli", "log_xi_asymptotic", "specfun.log_xi_asymptotic"),
    ("cli", "cosh_demo", "transforms.cosh_demo"),
    ("cli", "verify_table_row", "transforms.verify_table_row"),
    ("cli", "find_zeros", "zerodist.find_zeros"),
    ("cli", "n_of_t", "zerodist.n_of_t"),
    ("cli", "omega_stats", "zerodist.omega_stats"),
    ("cli", "phi_smooth", "zerodist.phi_smooth"),
    ("cli", "predict_zeros", "zerodist.predict_zeros"),
    ("cli", "residual_report", "zerodist.residual_report"),
    ("api", "cli_main", "cli.main"),
    ("api", "zeta", "specfun.zeta"),
    ("api", "log_gamma", "specfun.log_gamma"),
    ("api", "xi_z", "specfun.xi_z"),
    ("api", "log_xi_z", "specfun.log_xi_z"),
    ("api", "transform_numeric", "transforms.transform_numeric"),
)

#: Span of one evaluation of the function handed to count_zeros_contour.
CONTOUR_SAMPLE = "specfun.xi_z_phase"
#: Span around one whole traced pass; the root of every other span.
PASS = "bench.pass"


class Tracer:
    def __init__(self) -> None:
        # spans[i] = (parent id, name, start ns, end ns); -1 means no parent
        self.spans: list[tuple[int, str, int, int]] = []
        self.quad_evals = 0
        self.zeros_found = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def _open(self, name: str) -> Iterator[None]:
        spans, stack = self.spans, self._stack
        sid = len(spans)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        spans.append((parent, name, 0, 0))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[sid] = (parent, name, start, end)

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        # Inlined form of _open: this runs on every wrapped call.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            spans.append((parent, name, 0, 0))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, name, start, end)

        return wrapper

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        inner = self.span(name, fn)
        if name == "_quad.integrate":
            def counted(*args, **kwargs):
                value, err, evals = inner(*args, **kwargs)
                self.quad_evals += evals
                return value, err, evals
            return counted
        if name == "zerodist.find_zeros":
            def counted(*args, **kwargs):
                zeros = inner(*args, **kwargs)
                self.zeros_found += len(zeros)
                return zeros
            return counted
        if name == "transforms.count_zeros_contour":
            def sampled(f, *args, **kwargs):
                return inner(self.span(CONTOUR_SAMPLE, f), *args, **kwargs)
            return sampled
        return inner

    @contextlib.contextmanager
    def installed(self, pkg: SimpleNamespace, api: Any) -> Iterator[None]:
        """Install every wrapper for the duration of one traced pass."""
        owners = {"zerodist": pkg.zerodist, "transforms": pkg.transforms, "cli": pkg.cli,
                  "ZeroList": pkg.zerodist.ZeroList, "api": api}
        saved = []
        try:
            for owner_name, attr, name in PATCHES:
                owner = owners[owner_name]
                saved.append((owner, attr, inspect.getattr_static(owner, attr)))
                wrapped = self._wrap(name, getattr(owner, attr))
                setattr(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)
            with self._open(PASS):
                yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, (parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{start},{end}\n")


UNITS = {
    "specfun.log_xi_terms.calls": "count",
    "specfun.log_xi_terms.us_per_call": "us",
    "specfun.zeta.calls": "count",
    "specfun.zeta.us_per_call": "us",
    "specfun.xi_z.us_per_call": "us",
    "specfun.log_gamma.us_per_call": "us",
    "specfun.self_s": "s",
    "transforms.count_zeros_contour.s": "s",
    "transforms.count_zeros_contour.f_evals": "count",
    "transforms.transform_numeric.calls": "count",
    "transforms.transform_numeric.s": "s",
    "transforms.transform_step.s": "s",
    "quad.integrate.calls": "count",
    "quad.integrate.evals": "count",
    "quad.integrate.us_per_eval": "us",
    "zerodist.find_zeros.s": "s",
    "zerodist.zeros_found": "count",
    "zerodist.scan.evals": "count",
    "zerodist.scan.s": "s",
    "zerodist.refine.evals": "count",
    "zerodist.refine.s": "s",
    "zerodist.refine.evals_per_root": "count",
    "zerodist.predict_zeros.s": "s",
    "zerodist.predict_zeros.phi_calls": "count",
    "zerodist.omega_stats.s": "s",
    "zerodist.residual.s": "s",
    "zerodist.zerolist_read.s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_frac": "1",
}


def layer_metrics(tracer: Tracer, passes: int, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Counts and seconds are per pass; ``bytes_out`` is already per pass.
    Self time is a span's duration minus the time its child spans cover.
    Every traced pass does the same work, so the counts are exact integers.
    The caller adds ``trace.overhead_frac``.
    """
    spans = tracer.spans
    calls: Counter[str] = Counter()
    total: defaultdict[str, int] = defaultdict(int)
    child: defaultdict[int, int] = defaultdict(int)
    for parent, name, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_ns: defaultdict[str, int] = defaultdict(int)
    under: Counter[tuple[str, str]] = Counter()  # (parent name, child name)
    for sid, (parent, name, start, end) in enumerate(spans):
        self_ns[name.split(".", 1)[0]] += end - start - child[sid]
        if parent >= 0:
            under[spans[parent][1], name] += 1

    def count(n: float) -> int:
        return round(n / passes)

    def secs(name: str) -> float:
        return total[name] / 1e9 / passes

    def us_per(name: str, n: float) -> float:
        return total[name] / 1e3 / n if n else 0.0

    refine_evals = under["zerodist.refine", "specfun.log_xi_terms"]
    return {
        "specfun.log_xi_terms.calls": count(calls["specfun.log_xi_terms"]),
        "specfun.log_xi_terms.us_per_call": us_per("specfun.log_xi_terms", calls["specfun.log_xi_terms"]),
        "specfun.zeta.calls": count(calls["specfun.zeta"]),
        "specfun.zeta.us_per_call": us_per("specfun.zeta", calls["specfun.zeta"]),
        "specfun.xi_z.us_per_call": us_per("specfun.xi_z", calls["specfun.xi_z"]),
        "specfun.log_gamma.us_per_call": us_per("specfun.log_gamma", calls["specfun.log_gamma"]),
        "specfun.self_s": self_ns["specfun"] / 1e9 / passes,
        "transforms.count_zeros_contour.s": secs("transforms.count_zeros_contour"),
        "transforms.count_zeros_contour.f_evals": count(calls[CONTOUR_SAMPLE]),
        "transforms.transform_numeric.calls": count(calls["transforms.transform_numeric"]),
        "transforms.transform_numeric.s": secs("transforms.transform_numeric"),
        "transforms.transform_step.s": secs("transforms.transform_step"),
        "quad.integrate.calls": count(calls["_quad.integrate"]),
        "quad.integrate.evals": count(tracer.quad_evals),
        "quad.integrate.us_per_eval": us_per("_quad.integrate", tracer.quad_evals),
        "zerodist.find_zeros.s": secs("zerodist.find_zeros"),
        "zerodist.zeros_found": count(tracer.zeros_found),
        "zerodist.scan.evals": count(under["zerodist.find_zeros", "specfun.log_xi_terms"]),
        "zerodist.scan.s": secs("zerodist.find_zeros") - secs("zerodist.refine")
        - secs("transforms.count_zeros_contour"),
        "zerodist.refine.evals": count(refine_evals),
        "zerodist.refine.s": secs("zerodist.refine"),
        "zerodist.refine.evals_per_root": refine_evals / calls["zerodist.refine"]
        if calls["zerodist.refine"] else 0.0,
        "zerodist.predict_zeros.s": secs("zerodist.predict_zeros"),
        "zerodist.predict_zeros.phi_calls": count(under["zerodist.predict_zeros", "zerodist.phi_smooth"]),
        "zerodist.omega_stats.s": secs("zerodist.omega_stats"),
        "zerodist.residual.s": secs("zerodist.residual"),
        # per read, so it compares with setup_s whatever the number of reads
        "zerodist.zerolist_read.s": us_per("zerodist.zerolist_read", calls["zerodist.zerolist_read"]) / 1e6,
        "cli.main.s": secs("cli.main"),
        "cli.self_s": self_ns["cli"] / 1e9 / passes,
        "cli.bytes_out": bytes_out,
    }
