"""Shared fixtures for the core tests."""

import pytest

from repro.core import compiled


@pytest.fixture(params=[(p, d) for p in compiled.PROVIDERS
                        for d in ("float64", "float32")],
                ids=lambda pd: "-".join(pd))
def kernels(request):
    """A resolved KernelSet per (provider, dtype); skips the ones this host
    cannot build, so operator-level tests cover every available provider."""
    provider, dtype = request.param
    try:
        return compiled.get_kernels(dtype, provider=provider)
    except compiled.CompiledUnavailable as exc:
        pytest.skip(f"{provider}: {exc}")
