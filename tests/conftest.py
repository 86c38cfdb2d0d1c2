"""Shared fixtures and the hypothesis profile for CI."""

import os

import numpy as np
import pytest
from hypothesis import settings

from spinalfade import channel, sim

# On CI a failing example is printed as a blob that `@reproduce_failure`
# replays locally; example counts and deadlines stay those of each test.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def constant_gain(monkeypatch):
    """`constant_gain(h)` makes every fading draw return the gain h.

    It replaces the uniform-to-gain transform that both `transmit` and the
    block path of `count_errors` call, so the gain uniforms are still drawn
    and the scalar and block trial paths stay aligned draw for draw.
    """
    def use(h):
        def gains(model, u):
            shape = u.shape[:-1] if model.kind == channel.RICIAN else u.shape
            return np.full(shape, float(h))

        monkeypatch.setattr(channel, "gains_from_uniforms", gains)
        monkeypatch.setattr(sim, "gains_from_uniforms", gains)

    return use
