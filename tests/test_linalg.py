import numpy as np
import pytest

from invspec.errors import InputError, SingularMatrixError
from invspec.linalg import check_pivots, det, factor_ratio, lu_factor


def cofactor_det(a: np.ndarray) -> complex:
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0j
    for col in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), col, axis=1)
        total += (-1) ** col * a[0, col] * cofactor_det(minor)
    return total


def test_identity_and_diagonal():
    assert det(np.eye(5)) == pytest.approx(1.0)
    assert det(np.diag([2.0, 3j])) == pytest.approx(6j)


def test_det_matches_cofactor_oracle(rng):
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        expected = cofactor_det(a)
        assert abs(det(a) - expected) <= 1e-12 * abs(expected)


def test_det_multiplicative(rng):
    for _ in range(5):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        lhs = det(a @ b)
        rhs = det(a) * det(b)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_singular_det_is_zero():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert det(a) == pytest.approx(0.0, abs=1e-14)


def test_stack_matches_per_matrix_values(rng):
    stack = rng.normal(size=(7, 5, 5)) + 1j * rng.normal(size=(7, 5, 5))
    stack[3] = np.eye(5)
    stack[4, :, 0] = 0.0
    values = det(stack)
    assert values.shape == (7,)
    expected = np.array([det(a) for a in stack])
    assert np.abs(values - expected).max() <= 1e-14 * np.abs(expected).max()
    assert values[3] == 1.0 and values[4] == 0.0


def test_solve_singular_raises_with_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as err:
        check_pivots(lu_factor(a)[0])
    assert err.value.pivot_index >= 0


def test_shape_validation():
    with pytest.raises(InputError):
        det(np.zeros((2, 3)))
    with pytest.raises(InputError):
        det(np.zeros((4, 2, 3)))
    with pytest.raises(InputError):
        det(np.zeros(3))
    with pytest.raises(InputError):
        lu_factor(np.zeros((2, 3)))


def test_pivot_ratio_detects_bad_conditioning():
    assert factor_ratio(lu_factor(np.eye(4))[0]) == pytest.approx(1.0)
    assert factor_ratio(lu_factor(np.diag([1.0, 1e-14]))[0]) > 1e12
