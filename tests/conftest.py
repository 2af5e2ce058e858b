import numpy as np
import pytest

from invspec import Order, PotentialCoefficients, SpectralData, analytic, kernel

# the module each guard constant lives in
_CONSTANT_HOMES = {"LEFT_FACTOR_RTOL": kernel, "POLE_TOL": analytic}


def random_potential(order: Order, n_max: int, rng, scale: float = 0.05) -> PotentialCoefficients:
    """Random coefficients with |p_{gamma n}| <= scale * 2^-n."""
    shape = (order.gamma_count, n_max)
    raw = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    cap = scale * 2.0 ** -np.arange(1, n_max + 1)
    return PotentialCoefficients(order, n_max, raw / np.sqrt(2.0) * cap[None, :])


def random_spectral(order: Order, n_max: int, rng, scale: float = 0.01) -> SpectralData:
    """Random spectral data with |S_{nj}| <= scale * 2^-n."""
    shape = (n_max, order.j_count)
    raw = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    cap = scale * 2.0 ** -np.arange(1, n_max + 1)
    return SpectralData(order, n_max, raw / np.sqrt(2.0) * cap[:, None])


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def guard_constants(monkeypatch):
    """guard_constants(NAME=value, ...) sets guard constants for one test.

    A cached kernel keeps the verdict of the constants it was built under, so
    the kernel cache is cleared before the test, at every change and after
    the test, once the constants are restored.
    """
    kernel.diagonal_kernel.cache_clear()

    def set_constants(**values):
        for name, value in values.items():
            monkeypatch.setattr(_CONSTANT_HOMES[name], name, value)
        kernel.diagonal_kernel.cache_clear()

    yield set_constants
    monkeypatch.undo()
    kernel.diagonal_kernel.cache_clear()
