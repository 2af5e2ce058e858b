import numpy as np
import pytest

from invspec import Order, PotentialCoefficients, SpectralData, kernel

# the module each guard constant lives in
_CONSTANT_HOMES = {"LEFT_FACTOR_RTOL": kernel}


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


def kernel_weight(kern, alpha: int, n: int, j: int) -> np.ndarray:
    """The weights (ik - alpha)^gamma (-1 / Q_alpha(k)) over gamma at ik = c_nj, as the kernel stores them.

    At n >= alpha they are column alpha's weights at the pole (n, j).  At n <
    alpha they are column alpha - n's weights at the mirror point w_j k_nj,
    whose ik is c_nj - n, so that the same number (ik - alpha)^gamma stands
    in both, and whose divisor Q_{alpha-n}(w_j k_nj) is Q_alpha(k_nj).
    """
    jc = kern.order.j_count
    if n >= alpha:
        return kern.weights[alpha - 1][:, (n - alpha) * jc + j - 1]
    beta = alpha - n
    # column beta reads the poles n' >= beta, then the mirrors from n = 1
    return kern.weights[beta - 1][:, (kern.n_max - beta + n) * jc + j - 1]


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
