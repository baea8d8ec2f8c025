import warnings

import numpy as np
import pytest

from pointtomo.assets import seven_port_matrix
from pointtomo.povm import Povm, effects_from_family, load_mbs

WINNER = (4, 5, 6, 7)

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def device():
    return load_mbs(seven_port_matrix())


@pytest.fixture(scope="session")
def raw_device():
    return load_mbs(seven_port_matrix(), reunitarize=False)


@pytest.fixture(scope="session")
def family_povm(device):
    return effects_from_family(device, WINNER)


@pytest.fixture(scope="session")
def raw_family_povm(raw_device):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return effects_from_family(raw_device, WINNER)


@pytest.fixture(scope="session")
def basis_povm():
    return Povm(np.eye(4, dtype=complex))


@pytest.fixture(scope="session")
def fsm_povm():
    """13-outcome rank-1 POVM with an exactly vanishing C matrix.

    One fiducial-aligned effect plus, per direction j, the quartet of
    coefficients {s, -s, is, -is}: the squares cancel pairwise, so
    C_jj = 2s^2 - 2s^2 = 0, while completeness fixes s = 1/2.
    """
    c = 0.2
    s = 0.5
    rows = [np.array([np.sqrt(1 - 12 * c * c), 0, 0, 0], dtype=complex)]
    for j in range(1, 4):
        for factor in (s, -s, 1j * s, -1j * s):
            row = np.zeros(4, dtype=complex)
            row[0] = c
            row[j] = factor
            rows.append(row)
    from pointtomo.povm import gauge_fix_effects

    return Povm(gauge_fix_effects(np.array(rows)))


def dft_columns(n: int, d: int) -> np.ndarray:
    """The first d columns of the n-point DFT, omega^(eta j) / sqrt(n) with
    omega = exp(2 pi i / n). At n = 2d - 1 the rows are a Fisher-symmetric
    rank-1 POVM: C_jk is a sum of omega^(eta (j + k)) over eta, and
    2 <= j + k <= 2d - 2 < n, so C = 0."""
    return np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(d)) / n) / np.sqrt(n)


def disk_theta(rng, m: int, radius: float) -> np.ndarray:
    """Uniform draw from the per-component complex disk of given radius."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, m))
    phase = rng.uniform(0.0, 2.0 * np.pi, m)
    return r * np.exp(1j * phase)
