from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import settings

import swiptkit as sk

# property tests draw the same examples on every run, with no time limit
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def canonical_fit():
    """Production-quality fit of the tanh harvester on noiseless canonical data.

    About 0.1 s (L-BFGS-B); shared by the harvester tests and the acceptance
    suite.
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
