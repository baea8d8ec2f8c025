"""Point tomography: near-Fisher-symmetric measurement design, finite-ensemble
simulation, and local maximum-likelihood state estimation for qudits."""

__version__ = "0.1.0"

import os as _os
import sys as _sys
from types import ModuleType as _ModuleType

# OpenBLAS sizes its thread pool once, when numpy loads it, and a second thread
# spins through the first ~0.1 s of the process. Every matrix the package hands
# to BLAS or LAPACK is at most 7x7, so the numpy loaded here runs one thread.
# A user's own setting wins, a numpy imported before pointtomo keeps its pool,
# and the variable is removed again, so subprocesses inherit nothing.
if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .errors import (ConsistencyError, DegenerateInput, InvalidInput,
                     NumericalError, PointTomoError, SweepError)
from .estimator import FitResult, MleConfig, estimate_state, estimate_theta, fit_power_law
from .fisher import (FisherBlocks, asymptotic_infidelity_coefficient, c_matrix,
                     c_norm, cfim_first_order, cfim_numeric, gill_massar_wmse,
                     gm_inequality_lhs, qfim_pure)
from .povm import (MbsDevice, Povm, effects_from_family, enumerate_families,
                   gauge_fix_effects, haar_mean_c_norm, haar_random_povm, load_mbs,
                   optimize_phases)
from .simulate import (BootstrapResult, NoiseConfig, SweepConfig, SweepResult,
                       bootstrap_infidelity, expected_infidelity_floor, perturb_effects,
                       prepared_state, run_sweep, sample_counts, trial_rng)
from .states import (DensityMatrix, StateVector, born_probabilities, depolarize,
                     equal_deviation_state, fidelity, neighborhood_state)

# submodules stay reachable as attributes but are not part of the star-import surface
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
