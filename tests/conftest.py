"""Fixtures shared by the test modules."""

import pytest

from torusgas import spectral


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
