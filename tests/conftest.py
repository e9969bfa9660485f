"""Shared fixtures: process-global state isolation and common builders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.bindings.context import LOCAL_DIRECTORY
from repro.transport.inproc import reset_inproc_namespace

# the nightly's budget (--hypothesis-profile=soak): tests that fix no
# max_examples of their own search twenty times further than the PR gate
settings.register_profile("soak", max_examples=2000, deadline=None)


@pytest.fixture(autouse=True)
def _isolate_process_globals():
    """Each test starts with empty inproc and container directories, and
    observability state (tracing switch, span ring, metric values) never
    leaks across tests."""
    from repro.obs import metrics, trace

    reset_inproc_namespace()
    LOCAL_DIRECTORY.clear()
    yield
    reset_inproc_namespace()
    LOCAL_DIRECTORY.clear()
    trace.enable(False)
    trace.recorder.clear()
    metrics.registry.reset()


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded RNG for reproducible numeric fixtures."""
    return np.random.default_rng(12345)


@pytest.fixture
def matmul_doc():
    """A deployed-looking MatMul WSDL document with all binding kinds."""
    from repro.tools.wsdlgen import generate_wsdl
    from repro.plugins.services import MatMul

    return generate_wsdl(MatMul, bindings=("soap", "xdr", "local"))
