"""The names the benchmark's tracing shim patches and reads still exist.

``bench/shim.py`` replaces every function in its ``LAYERS`` table by name and
reads ``cache_info()`` of every entry in ``CACHES``; a rename or a dropped
cache would silently break per-layer tracing.  The shim is loaded from its
file and only read.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SHIM = Path(__file__).resolve().parent.parent / "bench" / "shim.py"


def _load_shim():
    spec = importlib.util.spec_from_file_location("fhc_bench_shim", SHIM)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    return shim


shim = _load_shim()


@pytest.mark.parametrize("module, function", [row[:2] for row in shim.LAYERS])
def test_layer_is_a_function_of_its_module(module, function):
    assert callable(getattr(importlib.import_module(module), function))


@pytest.mark.parametrize("module, function", shim.CACHES)
def test_cache_reports_cache_info(module, function):
    cached = getattr(importlib.import_module(module), function)
    assert cached.cache_info().currsize >= 0
