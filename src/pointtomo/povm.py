"""Rank-1 POVMs realized by a multiport beam splitter, and random baselines.

Connecting d of the D input ports of a D x D multiport device and detecting
on all D outputs realizes a d-dimensional rank-1 POVM with D outcomes. The
coefficient vector of outcome eta is

    a_j^eta = conj(U[eta, k_j] * exp(i phi_j)) * exp(i gamma_eta),

where k_1..k_d are the connected inputs, phi_j the input phases and
gamma_eta a per-outcome phase fixing the leading coefficient real and
nonnegative.
"""

from __future__ import annotations

import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .assets import load_matrix, seven_port_matrix
from .errors import DegenerateInput, InvalidInput
from .fisher import COMPLETENESS_TOL, _c_gram, _norm_ord, matrix_norm
from .validation import check_square_matrix

GAUGE_FLOOR = 1e-12
# Haar samples per stacked QR, and per task of the baseline's thread pool; it divides
# none of 100, 1,000 and 10,000, so the last block of those sample counts is partial
HAAR_BLOCK = 512


@dataclass(frozen=True)
class Povm:
    """Ordered rank-1 effect coefficient vectors, one row per outcome."""

    effects: np.ndarray
    completeness_deviation: float = field(init=False, compare=False)

    def __post_init__(self):
        eff = np.asarray(self.effects, dtype=complex)
        if eff.ndim != 2 or eff.shape[1] < 2:
            raise InvalidInput(f"effects must be (n_outcomes, d) with d >= 2, got shape {eff.shape}")
        if not np.all(np.isfinite(eff)):
            raise InvalidInput("effects contain non-finite entries")
        lead = eff[:, 0]
        if np.max(np.abs(lead.imag)) > 1e-9 or lead.real.min() < -1e-9:
            raise InvalidInput("leading effect coefficients must be real nonnegative (phase convention)")
        gram = eff.conj().T @ eff
        dev = float(np.linalg.norm(gram - np.eye(eff.shape[1]), 2))
        eff.setflags(write=False)
        object.__setattr__(self, "effects", eff)
        object.__setattr__(self, "completeness_deviation", dev)

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]

    def is_complete(self) -> bool:
        return self.completeness_deviation <= COMPLETENESS_TOL


@dataclass(frozen=True)
class MbsDevice:
    """A multiport transfer matrix together with its unitarity bookkeeping."""

    u: np.ndarray
    unitarity_deviation: float
    replacement_distance: float = 0.0

    @property
    def n_ports(self) -> int:
        return self.u.shape[0]


def load_mbs(matrix, reunitarize: bool = True) -> MbsDevice:
    """Ingest a device transfer matrix, optionally projecting to the nearest unitary."""
    u = check_square_matrix(matrix, "device matrix")
    if u.shape[0] < 2:
        raise InvalidInput("device must have at least 2 ports")
    a, svals, vh = np.linalg.svd(u)   # u = a s vh, with the unitary polar factor a vh
    if svals.min() < 1e-6:
        raise DegenerateInput(f"device matrix is rank deficient (smallest singular value {svals.min():.3e})")
    deviation = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2))
    if not reunitarize:
        return MbsDevice(u=u, unitarity_deviation=deviation)
    w = a @ vh
    distance = float(np.linalg.norm(u - w, 2))
    return MbsDevice(u=w, unitarity_deviation=deviation, replacement_distance=distance)


def load_device(spec: str) -> MbsDevice:
    """Load a device projected onto the nearest unitary: ``"u7"`` for the shipped
    7-port matrix, else a matrix text file."""
    return load_mbs(seven_port_matrix() if spec == "u7" else load_matrix(spec))


def enumerate_families(n_ports: int, dim: int) -> list:
    """All size-``dim`` input subsets of ``1..n_ports`` in lexicographic order."""
    if dim < 2 or dim > n_ports:
        raise InvalidInput(f"need 2 <= dim <= n_ports, got dim={dim}, n_ports={n_ports}")
    return [tuple(c) for c in combinations(range(1, n_ports + 1), dim)]


def gauge_fix_effects(raw: np.ndarray) -> np.ndarray:
    """Rotate each effect's global phase so its anchor coefficient is real >= 0.

    The anchor is the leading coefficient, or the first coefficient of
    magnitude above 1e-12 when the leading one vanishes; effects with no
    coefficient above 1e-12 are left untouched.
    """
    fixed = np.array(raw, dtype=complex)
    above = np.abs(fixed) > GAUGE_FLOOR
    rows = np.nonzero(above.any(axis=1))[0]
    anchors = fixed[rows, above[rows].argmax(axis=1)]
    fixed[rows] *= np.exp(-1j * np.angle(anchors))[:, None]
    return fixed


def effects_from_family(mbs: MbsDevice, subset, phases=None) -> Povm:
    """Build the D-outcome POVM for the connected inputs ``subset`` of the device.

    ``subset`` is 1-based and strictly increasing, with at least two
    entries. ``phases`` gives one finite input phase per connected input
    in radians, the first of them 0 (the gauge); it defaults to all zero. A
    POVM whose completeness deviation exceeds 1e-6 is still returned, with
    a warning; this happens for raw experimental matrices that were not
    re-unitarized.
    """
    subset = tuple(int(s) for s in subset)
    if len(subset) < 2 or any(b <= a for a, b in zip(subset, subset[1:])):
        raise InvalidInput(f"subset must be strictly increasing with >= 2 entries, got {subset}")
    if subset[0] < 1:
        raise InvalidInput("subset indices are 1-based")
    phases = np.zeros(len(subset)) if phases is None else np.asarray(phases, dtype=float)
    if phases.shape != (len(subset),):
        raise InvalidInput(f"need one phase per connected input, got shape {phases.shape}")
    if not np.all(np.isfinite(phases)):
        raise InvalidInput(f"input phases must be finite, got {tuple(phases.tolist())}")
    if abs(phases[0]) > 0:
        raise InvalidInput("the first phase is the gauge and must be 0")
    if subset[-1] > mbs.n_ports:
        raise InvalidInput(f"subset {subset} is out of range for a {mbs.n_ports}-port device")
    cols = np.asarray(subset, dtype=int) - 1
    raw = np.conj(mbs.u[:, cols] * np.exp(1j * np.mod(phases, 2.0 * np.pi))[None, :])
    povm = Povm(gauge_fix_effects(raw))
    if not povm.is_complete():
        warnings.warn(
            f"POVM for subset {subset} deviates from completeness by "
            f"{povm.completeness_deviation:.3e}; consider re-unitarizing the device",
            stacklevel=2,
        )
    return povm


def optimize_phases(mbs: MbsDevice, subset, n_starts: int = 32, seed: int = 0,
                    norm_kind: str = "spectral"):
    """C-matrix norm of a family, which is the same at every input phase.

    Input phase phi_j multiplies coefficient j of every outcome by
    exp(-i phi_j), and phi_0 = 0 leaves the leading coefficient alone. When
    every outcome's gauge anchor is its leading coefficient, the gauge
    rotations do not depend on phi either, so C(phi) = D C(0) D with the
    unitary D = diag(exp(-i phi_j)), j >= 1: every singular value of C, and
    hence both norms and the asymptotic infidelity coefficient, is the same
    at all phases. All 35 families of the shipped 7-port device meet that
    precondition; their smallest leading magnitude is 0.147. An outcome
    whose leading coefficient vanishes is anchored on a later coefficient k
    and picks up exp(2i phi_k), so C(phi) = sum_k exp(2i phi_k) D C_k(0) D,
    with C_k the C Gram of the outcomes anchored at k. The norm is still phase-invariant
    when outcomes with different anchors reach disjoint inputs, as on the
    identity device, because C is then block diagonal; otherwise it can
    depend on phi, and :class:`DegenerateInput` is raised.

    Returns ``(phases, norm)``: the all-zero input phases and the norm at
    them. ``n_starts`` and ``seed`` are accepted for compatibility and do
    not change the result.
    """
    povm = effects_from_family(mbs, subset)
    above = np.abs(povm.effects) > GAUGE_FLOOR
    anchor_of = np.eye(povm.dim, dtype=int)[above.argmax(axis=1)]
    # outcomes per (input j >= 1, anchor): one anchor per input keeps C block diagonal
    if np.any(np.count_nonzero(above[:, 1:].T @ anchor_of, axis=1) > 1):
        raise DegenerateInput(
            f"subset {tuple(map(int, subset))}: outcomes gauged on different coefficients reach a "
            "common input, so the C norm can depend on the input phases")
    return np.zeros(povm.dim), matrix_norm(_c_gram(povm.effects), norm_kind)


def _ginibre(n: int, count: int, rng, columns: int) -> np.ndarray:
    """The first ``columns`` columns of ``count`` stacked (n, n) Ginibre draws,
    real and imaginary parts along axis 1; sample i consumes the generator as
    the i-th per-sample draw would, an (n, n) standard normal real part, then
    the imaginary part."""
    return rng.standard_normal((count, 2, n, n))[..., :columns]


def _haar_columns(g: np.ndarray) -> np.ndarray:
    """The leading columns of Haar unitaries from Ginibre draws :func:`_ginibre`
    made, by a phase-corrected QR. The first columns of Q depend only on the
    first columns of the Ginibre matrix, so only those are factored."""
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_random_povm(dim: int, n_outcomes: int, rng) -> Povm:
    """Random complete rank-1 POVM from the first ``dim`` columns of a Haar unitary."""
    if n_outcomes < dim:
        raise InvalidInput("need n_outcomes >= dim for completeness")
    # every column factored, as the per-sample reference draw does, so the two agree bit for bit
    columns = _haar_columns(_ginibre(n_outcomes, 1, rng, n_outcomes))
    return Povm(gauge_fix_effects(columns[0, :, :dim]))


def available_cores() -> int:
    """The cores this process may run on: its affinity mask where the platform
    has one, else ``os.cpu_count()``, and at least 1."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:                   # no affinity call on this platform
        return os.cpu_count() or 1


def haar_workers(samples: int) -> int:
    """Threads :func:`haar_mean_c_norm` factors ``samples`` draws on: one per
    available core, and no more than there are blocks."""
    return min(available_cores(), -(-samples // HAAR_BLOCK))


def _block_norms(g: np.ndarray, order, out: np.ndarray) -> None:
    out[:] = np.linalg.norm(_c_gram(_haar_columns(g)), order, axis=(-2, -1))


def haar_mean_c_norm(dim: int, n_outcomes: int, samples: int, rng,
                     kind: str = "spectral"):
    """Monte Carlo mean and standard error of the C norm over Haar POVMs.

    The norm is evaluated on the raw Haar coefficient rows, i.e. before the
    leading-coefficient phase gauge is applied; this is the published
    baseline convention for random measurements. Samples are drawn in
    stacks of ``HAAR_BLOCK`` and consume ``rng`` exactly as ``samples``
    successive per-sample Ginibre draws and QR factorizations would.

    The calling thread draws every block in turn; a pool of
    :func:`haar_workers` threads, which lives only for this call, factors
    them and takes their norms, with at most two blocks per thread in
    flight. Each matrix goes through the same LAPACK call as in a serial
    loop, so the result does not depend on the thread count.
    """
    if samples < 100:
        raise InvalidInput("need at least 100 samples for a stable baseline")
    order = _norm_ord(kind)
    vals = np.empty(samples)
    workers = haar_workers(samples)
    in_flight = deque()
    with ThreadPoolExecutor(workers) as pool:
        for start in range(0, samples, HAAR_BLOCK):
            g = _ginibre(n_outcomes, min(HAAR_BLOCK, samples - start), rng, dim)
            in_flight.append(pool.submit(_block_norms, g, order, vals[start:start + len(g)]))
            if len(in_flight) == 2 * workers:
                in_flight.popleft().result()
        for block in in_flight:
            block.result()
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples))
