import numpy as np
import pytest

from specdens import pipeline as P
from specdens.net import MlpSpec


@pytest.fixture(scope="session")
def trained_tiny_net():
    """A small tanh classifier trained on a separable 3-class mixture.

    67 parameters, 60 examples — big enough that the curvature operators
    have nontrivial structure, small enough that dense oracles are instant.
    Session-scoped: training runs once for the whole suite.
    """
    gmm = P.GmmSpec(classes=3, n_per_class=20, dim=4, separation=3.0,
                    std=1.0, seed=5)
    train, test = P.gaussian_mixture(gmm)
    spec = MlpSpec(layer_dims=(4, 8, 3), activation="tanh")
    cfg = P.TrainConfig(epochs=8, lr=0.1, momentum=0.9, weight_decay=1e-4,
                        batch_size=16, seed=7)
    result = P.train_sgd(spec, train, test, cfg)
    return spec, result.checkpoints[-1].theta, train, test


@pytest.fixture
def rng():
    return np.random.default_rng(0)
