import numpy as np
import pytest

from invspec import Order, PotentialCoefficients, SpectralData


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
