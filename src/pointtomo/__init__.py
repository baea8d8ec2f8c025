"""Point tomography: near-Fisher-symmetric measurement design, finite-ensemble
simulation, and local maximum-likelihood state estimation for qudits."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (ConsistencyError, DegenerateInput, InvalidInput,
                     NumericalError, PointTomoError, SweepError)
from .estimator import FitResult, MleConfig, estimate_state, estimate_theta, fit_power_law
from .fisher import (FisherBlocks, asymptotic_infidelity_coefficient, c_matrix,
                     c_norm, cfim_first_order, cfim_numeric, gill_massar_wmse,
                     gm_inequality_lhs, gm_optimal_cfim, gm_optimal_wmse, qfim_pure)
from .povm import (MbsDevice, Povm, PovmFamily, effects_from_family,
                   enumerate_families, gauge_fix_effects, haar_mean_c_norm,
                   haar_random_povm, haar_random_unitary, load_mbs, optimize_phases)
from .simulate import (BootstrapResult, NoiseConfig, SweepConfig, SweepResult,
                       bootstrap_infidelity, expected_infidelity_floor, perturb_effects,
                       prepared_state, run_sweep, sample_counts, trial_rng)
from .states import (DensityMatrix, StateVector, born_probabilities, depolarize,
                     equal_deviation_state, fiducial_state, fidelity,
                     neighborhood_state)

# after numpy has loaded its OpenBLAS: capping first slows its import
from .blas import limit_blas_threads as _limit_blas_threads

_limit_blas_threads()

# submodules stay reachable as attributes but are not part of the star-import surface
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
