"""Shared fixtures: the obs layer is process-global, so every test here
saves the REGISTRY/TRACER enabled state, starts disabled from zeroed
instruments and an empty ring, and restores the prior state on the way
out.  Starting disabled matters: an earlier test (any
``AllocationService(observability=True)``) may have left both on."""

import pytest

from repro.obs.registry import REGISTRY
from repro.obs.tracing import TRACER


@pytest.fixture(autouse=True)
def clean_obs():
    reg_on, trc_on = REGISTRY.enabled, TRACER.enabled
    REGISTRY.disable()
    TRACER.disable()
    REGISTRY.reset()
    TRACER.clear()
    yield
    REGISTRY.enabled, TRACER.enabled = reg_on, trc_on
    REGISTRY.reset()
    TRACER.clear()
