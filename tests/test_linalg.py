"""Unit tests for the small linear algebra helpers."""

import numpy as np
import pytest

from seqdisc.linalg import (
    MAX_DIM,
    complete_to_unitary,
    dagger,
    min_eigenvalue,
)


def _random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_min_eigenvalue_rejects_non_hermitian():
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        min_eigenvalue(np.ones((2, 3)))
    with pytest.raises(ValueError):
        min_eigenvalue(np.eye(7))


def test_min_eigenvalue_matches_numpy():
    rng = np.random.default_rng(7)
    for n in (2, 3, 6):
        h = _random_complex(rng, n, n)
        h = h + dagger(h)
        assert min_eigenvalue(h) == pytest.approx(np.linalg.eigvalsh(h)[0])


def test_complete_identity_from_first_basis_vector():
    u = complete_to_unitary([np.array([1.0, 0.0])])
    assert np.allclose(u, np.eye(2), atol=1e-14)


def test_complete_to_unitary_random_inputs():
    rng = np.random.default_rng(31)
    for dim in range(2, MAX_DIM + 1):
        for k in range(1, dim + 1):
            q, _ = np.linalg.qr(_random_complex(rng, dim, dim))
            cols = [q[:, j] for j in range(k)]
            u = complete_to_unitary(cols)
            assert u.shape == (dim, dim)
            assert np.linalg.norm(dagger(u) @ u - np.eye(dim)) < 1e-12
            assert np.allclose(u[:, :k], np.column_stack(cols), atol=0)


def test_complete_to_unitary_is_deterministic():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(_random_complex(rng, 6, 6))
    cols = [q[:, 0], q[:, 1]]
    assert complete_to_unitary(cols).tobytes() == complete_to_unitary(cols).tobytes()


def test_complete_to_unitary_skips_dependent_basis_vectors():
    # the given column is e0, so the e0 candidate must be skipped
    u = complete_to_unitary([np.array([1.0, 0.0, 0.0])])
    assert np.allclose(u, np.eye(3), atol=1e-14)
    # superposition input: remaining column is the orthogonal combination
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    u = complete_to_unitary([v])
    assert np.allclose(u[:, 1], np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-12)


def test_complete_to_unitary_input_validation():
    with pytest.raises(ValueError):
        complete_to_unitary([])
    with pytest.raises(ValueError):
        complete_to_unitary([np.array([1.0, 1.0])])  # not unit norm
    with pytest.raises(ValueError):
        complete_to_unitary([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    with pytest.raises(ValueError):
        complete_to_unitary([np.ones(2) / np.sqrt(2), np.array([1.0, 0.0, 0.0])])
