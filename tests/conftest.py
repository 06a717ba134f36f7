import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import settings

import swiptkit as sk
from swiptkit.channel import design_codewords, monte_carlo

# property tests draw the same examples on every run, with no time limit;
# HYPOTHESIS_PROFILE=randomized draws new ones: the certification, i0e and
# row-slice properties of tests/test_channel.py, the sampler, greedy-pass
# and einsum-order properties of tests/test_codebook.py, the draw-block
# property of tests/test_autoencoder.py and the zero-offset and derivative
# properties of the one-net harvester in tests/test_harvester_properties.py
# draw at least 1,000 of them, and the row-slice decoder properties of
# tests/test_channel.py and tests/test_autoencoder.py and the
# quadrature-block property of tests/test_channel.py at least 100
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.register_profile("randomized", deadline=None, max_examples=1000, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


@pytest.fixture(scope="session")
def canonical_fit():
    """Production-quality fit of the tanh harvester on noiseless canonical data.

    About 0.03 s (the package's L-BFGS, 36 iterations); shared by the
    harvester tests and the acceptance suite.
    """
    data = sk.synth_dataset(2000, p_max=2000.0, noise_rel=0.0, seed=7)
    return sk.fit_eh(data)


@pytest.fixture(scope="module")
def two_workers():
    """A 2-worker pool to stand in for the channel's decode pool, so threaded
    decoding is tested whatever the machine's CPU count."""
    pool = ThreadPoolExecutor(2)
    yield pool
    pool.shutdown()


def decision_ser(design, spec, trials, decide):
    """SER of the decision rule ``decide`` (received rows (B, n) -> messages)
    on a design's codewords: its errors summed over the channel's one Monte
    Carlo pass, so the draws are those ``ser_mc`` decodes at the same spec."""
    cw = design_codewords(design)
    errors = lambda msg, w: np.count_nonzero(decide(cw.take(msg, axis=0) + w) != msg)
    return monte_carlo(cw.shape, spec, trials, errors) / trials


@pytest.fixture(scope="session")
def canon():
    return sk.canonical_model()


class PlateauHarvester:
    """Threshold harvester with a flat nonzero floor and a sigmoid rise.

    The flat positive floor reproduces the economics of an uncorrected
    normalized tanh fit (zero marginal cost for collapsing a symbol), which is
    what lets a single symbol migrate outward under a heavy power demand.
    """

    def __init__(self, floor=10.0, ls=40.0, a=0.05, b=130.0):
        self.floor, self.ls, self.a, self.b = floor, ls, a, b

    def evaluate(self, p):
        p = np.asarray(p, dtype=float)
        return self.floor + (self.ls - self.floor) / (1.0 + np.exp(-self.a * (p - self.b)))

    def derivative(self, p):
        p = np.asarray(p, dtype=float)
        e = np.exp(-self.a * (p - self.b))
        return (self.ls - self.floor) * self.a * e / (1.0 + e) ** 2

    def value_and_derivative(self, p):
        return self.evaluate(p), self.derivative(p)
