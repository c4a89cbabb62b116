"""Shared fixtures for the core tests."""

import pytest

from repro.core import compiled


@pytest.fixture(params=["float64", "float32"],
                ids=lambda d: f"{compiled.PROVIDER}-{d}")
def kernels(request):
    """A resolved KernelSet per dtype; skipped where this host cannot build
    it."""
    try:
        return compiled.get_kernels(request.param)
    except compiled.CompiledUnavailable as exc:
        pytest.skip(str(exc))
