"""Small dense complex linear algebra helpers.

Everything in this package lives in dimension 2, 3, or 6, so the routines
here are written for tiny matrices and favor exact, explainable checks over
generality.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 6
DEFAULT_TOL = 1e-10


def freeze(array) -> np.ndarray:
    """Return a read-only complex copy of `array`."""
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside supported range 1..{MAX_DIM}")


def _as_vector(v, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    _check_dim(v.size)
    return v


def _as_square(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    _check_dim(m.shape[0])
    return m


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(m)).T


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix; a matrix that is not
    Hermitian within DEFAULT_TOL raises ValueError."""
    m = _as_square(m)
    if np.linalg.norm(m - dagger(m)) > DEFAULT_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return float(np.linalg.eigvalsh(m)[0])


def complete_to_unitary(columns) -> np.ndarray:
    """Extend orthonormal columns to a full unitary matrix.

    The result has the given vectors as its first columns, in order.  The
    remaining columns are produced by Gram-Schmidt over the canonical basis
    vectors taken in ascending index order; candidates whose residual after
    projection falls below DEFAULT_TOL are skipped.  That makes the
    completion deterministic: the same inputs always give the same matrix.
    """
    cols = [_as_vector(c, f"column {i}") for i, c in enumerate(columns)]
    if not cols:
        raise ValueError("at least one column is required")
    dim = cols[0].size
    for i, c in enumerate(cols):
        if c.size != dim:
            raise ValueError(f"column {i} has length {c.size}, expected {dim}")
    if len(cols) > dim:
        raise ValueError(f"got {len(cols)} columns for dimension {dim}")
    given = np.column_stack(cols)
    gram = dagger(given) @ given
    if np.linalg.norm(gram - np.eye(len(cols))) > DEFAULT_TOL:
        raise ValueError("input columns are not orthonormal within tolerance")

    basis = list(cols)
    for j in range(dim):
        if len(basis) == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[j] = 1.0
        # two projection passes for numerical stability
        for _ in range(2):
            for b in basis:
                v = v - np.vdot(b, v) * b
        norm = float(np.linalg.norm(v))
        if norm < DEFAULT_TOL:
            continue
        basis.append(v / norm)
    if len(basis) != dim:
        raise ValueError("could not complete the column set to a unitary")
    return np.column_stack(basis)
