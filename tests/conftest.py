"""Shared fixtures; the zero scans are session-scoped so they run once."""

from __future__ import annotations

import cmath
import time

import pytest
from hypothesis import settings

from zetaprod.specfun import _log_xi_terms
from zetaprod.zerodist import ZeroList, find_zeros

# Property tests draw the same examples on every run and write no example
# database; they have no per-example deadline, as timing varies by machine.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log(request):
    return request.config._acceptance_lines.append


@pytest.fixture(scope="session")
def literature_zeros() -> ZeroList:
    return ZeroList.bundled()


@pytest.fixture(scope="session")
def xi_phase():
    """Unit-modulus handle with the phase of xi_z, for contour counts.

    xi_z itself spans more than 9 decades on arcs of radius 30 and beyond,
    so count_zeros_contour's proximity test stops it there; this handle
    keeps only the phase, from the log form, which does not underflow.
    """
    return lambda z: cmath.exp(1j * _log_xi_terms(complex(z) + 0.5)[0].imag)


@pytest.fixture(scope="session")
def scan100() -> tuple[ZeroList, float]:
    t0 = time.monotonic()
    zeros = find_zeros(100.0)
    return zeros, time.monotonic() - t0


@pytest.fixture(scope="session")
def scan500() -> tuple[ZeroList, float]:
    t0 = time.monotonic()
    zeros = find_zeros(500.0)
    return zeros, time.monotonic() - t0
