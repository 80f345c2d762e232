"""Critical-fluctuation toolkit for noise-driven oscillatory instabilities.

The package covers the full pipeline: sparse polynomial vector fields
(:mod:`.polyfield`), spectral splitting of the linearization and
hypothesis auditing (:mod:`.spectral`), quadratic normal-form and
center-manifold reduction (:mod:`.normalform`), amplified-scale SDE
simulation with reproducible counter-based noise (:mod:`.sde`), and
distributional comparison of the amplified radius against its limiting
diffusion (:mod:`.stats`).  The ``hopf-critic`` console script in
:mod:`.cli` binds everything to a line-oriented config format.
"""

__version__ = "0.1.0"

from .polyfield import PolyMap
from .spectral import (
    HypothesisReport,
    SpectralSplit,
    check_hypotheses,
    freeze_parameter,
    hopf_split,
    transform_system,
)
from .normalform import (
    CenterManifold2,
    QuadraticTransform,
    apply_quadratic_transform,
    center_manifold_quadratic,
    invariance_defect,
    lyapunov_radial_coefficient,
    reduced_field,
    solve_quadratic,
)
from .sde import (
    LimitParams,
    NoiseStream,
    PathEnsemble,
    PolarEnsemble,
    SimTask,
    em_task,
    limit_task,
    polar_ensemble,
    reduced_task,
    rescaled_task,
    run_ensemble,
)
from .stats import (
    ConvergenceReport,
    ReductionReport,
    StationaryReport,
    averaged_diffusion,
    averaged_drift,
    convergence_study,
    ks_distance,
    noise_profile,
    prepare_system,
    reduction_diagnostics,
    stationary_check,
    wasserstein1,
)

__all__ = [
    "__version__",
    "PolyMap",
    "HypothesisReport", "SpectralSplit", "check_hypotheses",
    "freeze_parameter", "hopf_split", "transform_system",
    "CenterManifold2", "QuadraticTransform", "apply_quadratic_transform",
    "center_manifold_quadratic", "invariance_defect",
    "lyapunov_radial_coefficient", "reduced_field", "solve_quadratic",
    "LimitParams", "NoiseStream", "PathEnsemble", "PolarEnsemble",
    "SimTask", "em_task", "limit_task", "polar_ensemble", "reduced_task",
    "rescaled_task", "run_ensemble",
    "ConvergenceReport", "ReductionReport", "StationaryReport",
    "averaged_diffusion", "averaged_drift", "convergence_study",
    "ks_distance", "noise_profile", "prepare_system",
    "reduction_diagnostics", "stationary_check", "wasserstein1",
]
