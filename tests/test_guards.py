"""The degeneracy guard of the forward map, tripped on purpose.

The tolerance constant is pushed until the resonance guard fires; the error
must carry the index the column sweep reaches first.  The expected indices
are those of the original scalar loops.
"""
import numpy as np
import pytest

from conftest import random_potential
from invspec import Order, forward_map
from invspec.errors import ResonantIndexError


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
