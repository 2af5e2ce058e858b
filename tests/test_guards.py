"""Each degeneracy guard of the forward and inverse maps, tripped on purpose.

The tolerance constants are pushed until a guard fires; the error must carry
the index the column sweep reaches first.  The expected indices are those of
the original scalar loops.
"""
import numpy as np
import pytest

from conftest import random_potential, random_spectral
from invspec import Order, forward_map, inverse_map
from invspec.errors import DivisionRemainderError, ResonantIndexError, SingularSystemError


@pytest.mark.parametrize("m, n_max, left_tol, indices", [
    (1, 16, 0.5, (7, 8, 1)),
    (2, 10, 0.5, (9, 10, 1)),
    (2, 10, 1.0, (3, 4, 1)),
    (3, 6, 0.5, (1, 2, 1)),
])
def test_resonant_left_factor_guard(guard_constants, m, n_max, left_tol, indices):
    p = random_potential(Order(m), n_max, np.random.default_rng(3))
    guard_constants(LEFT_FACTOR_RTOL=left_tol)
    with pytest.raises(ResonantIndexError) as info:
        forward_map(p)
    assert info.value.indices == indices


@pytest.mark.parametrize("m, cond_limit, alpha", [(2, 5.0, 4), (3, 50.0, 4), (3, 30.0, 1)])
def test_singular_diagonal_system_guard(guard_constants, m, cond_limit, alpha):
    p = random_potential(Order(m), 8, np.random.default_rng(3))
    guard_constants(COND_LIMIT=cond_limit)
    with pytest.raises(SingularSystemError) as info:
        forward_map(p)
    assert info.value.alpha == alpha


@pytest.mark.parametrize("m, rtol, forward_nj, inverse_nj", [
    (2, -1.0, (1, 1), (1, 1)),
    (2, 1e-16, (3, 1), (3, 1)),
    (3, 1e-16, (2, 1), (1, 1)),
])
def test_division_remainder_guard(guard_constants, m, rtol, forward_nj, inverse_nj):
    p = random_potential(Order(m), 8, np.random.default_rng(3))
    s = random_spectral(Order(m), 8, np.random.default_rng(4))
    guard_constants(REMAINDER_RTOL=rtol)
    with pytest.raises(DivisionRemainderError, match=r"\(n=%d, j=%d\)" % forward_nj):
        forward_map(p)
    with pytest.raises(DivisionRemainderError, match=r"\(n=%d, j=%d\)" % inverse_nj):
        inverse_map(s)
