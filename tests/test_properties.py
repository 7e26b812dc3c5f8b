"""Property tests of the closed-form deconvolution kernel on random (gamma, h, t)."""

import math
import warnings

import numpy as np
import pytest

from catomo import kernel

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_estimator import kernel_quad_oracle  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
gammas = st.floats(0.0, 0.35)
inv_hs = st.floats(1.0, 6.0)
offsets = st.floats(-40.0, 40.0)


@PROPERTY
@given(gamma=gammas, inv_h=inv_hs, t=offsets)
def test_kernel_even(gamma, inv_h, t):
    assert kernel(t, gamma, 1.0 / inv_h) == kernel(-t, gamma, 1.0 / inv_h)


@PROPERTY
@given(gamma=gammas, inv_h=inv_hs, t=offsets)
def test_kernel_matches_quadrature(gamma, inv_h, t):
    k0 = kernel(0.0, gamma, 1.0 / inv_h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad reports roundoff at this tolerance
        ref = kernel_quad_oracle(t, gamma, 1.0 / inv_h)
    assert math.isfinite(k0) and k0 > 0.0
    assert abs(kernel(t, gamma, 1.0 / inv_h) - ref) <= 1e-12 * k0


@PROPERTY
@given(gamma=gammas, inv_h=inv_hs, t=st.lists(offsets, min_size=1, max_size=8))
def test_array_matches_scalar_calls(gamma, inv_h, t):
    arr = kernel(np.array(t), gamma, 1.0 / inv_h)
    assert arr.shape == (len(t),)
    assert all(arr[i] == kernel(tv, gamma, 1.0 / inv_h) for i, tv in enumerate(t))
