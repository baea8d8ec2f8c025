"""Input validation helpers shared across the library.

Each helper coerces to a canonical numpy representation and raises
:class:`~pointtomo.errors.InvalidInput` with a readable message on failure,
so that estimator-facing entry points can validate cheaply and uniformly.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

PROBABILITY_TOL = 1e-9


def check_local_parameters(theta, dim: int | None = None) -> np.ndarray:
    """Validate a local parameter vector (d-1 finite complex deviations)."""
    arr = np.asarray(theta, dtype=complex)
    if arr.ndim != 1:
        raise InvalidInput(f"theta must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("theta contains non-finite entries")
    if arr.size < 1:
        raise InvalidInput("theta must have at least one entry (d >= 2)")
    if dim is not None and arr.size != dim - 1:
        raise InvalidInput(f"theta has {arr.size} entries, expected {dim - 1}")
    return arr


def check_square_matrix(m, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return arr


def check_probability_vector(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise InvalidInput("probabilities must be one-dimensional")
    if np.any(arr < -PROBABILITY_TOL) or not np.all(np.isfinite(arr)):
        raise InvalidInput("probabilities must be nonnegative and finite")
    total = float(arr.sum())
    if abs(total - 1.0) > PROBABILITY_TOL:
        raise InvalidInput(f"probabilities must sum to 1 within {PROBABILITY_TOL}, "
                           f"got {total}")
    return np.clip(arr, 0.0, None)


def check_counts(counts, n_outcomes: int) -> np.ndarray:
    """Validate an outcome count (or exact frequency) vector.

    Real-valued entries are accepted so that exact expected frequencies can
    be fed to the estimator in place of integer counts.
    """
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 1:
        raise InvalidInput("counts must be one-dimensional")
    if arr.size != n_outcomes:
        raise InvalidInput(f"counts has {arr.size} entries, expected {n_outcomes}")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidInput("counts must be nonnegative and finite")
    if arr.sum() <= 0:
        raise InvalidInput("counts must contain at least one positive entry")
    return arr


def check_in_range(value: float, lo: float, hi: float, name: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value < lo or value > hi:
        raise InvalidInput(f"{name} must lie in [{lo}, {hi}], got {value}")
    return value
