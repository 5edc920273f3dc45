"""The names the benchmark's tracer wraps must stay bound where it patches them.

``bench/tracing.py`` lists (owner, attribute, span) triples in ``PATCHES``
and swaps each attribute for a timing wrapper during a traced run.  A
refactor that renames or moves one of those names would break
``bench/run.py --trace 1``; this test fails first.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import pytest

from zetaprod import cli, transforms, zerodist

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

OWNERS = {
    "zerodist": zerodist,
    "transforms": transforms,
    "cli": cli,
    "ZeroList": zerodist.ZeroList,
}


def _patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # "api" entries patch the benchmark's own table, not the package
    return [(owner, attr) for owner, attr, _ in module.PATCHES if owner != "api"]


@pytest.mark.parametrize("owner,attr", _patches(), ids=lambda v: v)
def test_patched_name_is_bound(owner, attr):
    assert owner in OWNERS, f"unknown owner {owner!r} in PATCHES"
    bound = inspect.getattr_static(OWNERS[owner], attr)
    if isinstance(bound, (classmethod, staticmethod)):
        bound = bound.__func__
    assert callable(bound)
