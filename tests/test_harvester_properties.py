"""Contracts of the fitted-harvester network over generated 3-2-1 weights."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import swiptkit as sk

SHAPES = ((3, 1), (3,), (2, 3), (2,), (1, 2), (1,))
MODELS = st.tuples(
    *(arrays(np.float64, s, elements=st.floats(-2.0, 2.0)) for s in SHAPES)
).map(lambda params: sk.EhModel(sk.MlpParams(weights=list(params[0::2]),
                                                biases=list(params[1::2])),
                                  input_scale=500.0, power_scale=30.0))
P_GRID = np.linspace(0.0, 1000.0, 401)


@given(MODELS)
def test_zero_input_gives_zero_and_output_is_nonnegative(model):
    assert model.evaluate(0.0) == 0.0
    assert np.all(np.asarray(model.evaluate(P_GRID)) >= 0.0)


@given(MODELS)
def test_derivative_matches_central_difference_where_active(model):
    h = 1e-3
    p = P_GRID[1:]
    lo, hi = np.asarray(model.evaluate(p - h)), np.asarray(model.evaluate(p + h))
    active = (lo > 0) & (hi > 0)
    fd = (hi - lo) / (2 * h)
    d = np.asarray(model.derivative(p))
    assert np.allclose(d[active], fd[active], rtol=1e-5, atol=1e-8)
