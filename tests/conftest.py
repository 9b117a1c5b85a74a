"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest

from torusgas import spectral


@pytest.fixture(scope="session")
def compare():
    """``bench/compare.py``, the artifact comparison of the golden and reference sets."""
    path = Path(__file__).resolve().parent.parent / "bench" / "compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def kernel_threads(monkeypatch):
    """The thread count passed to the pocketfft kernel by each call made during the test."""
    seen = []
    kernel = spectral._pocketfft

    class Recorder:
        def __getattr__(self, name):
            transform = getattr(kernel, name)

            def call(*args):
                seen.append(args[-1])
                return transform(*args)

            return call

    monkeypatch.setattr(spectral, "_pocketfft", Recorder())
    return seen
