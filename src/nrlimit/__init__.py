"""Spectral laboratory for pseudo-relativistic NLS/NLH ground states and
their large-c limit toward the nonrelativistic equation."""

from .grid import (
    Grid,
    SpectralField,
    inner_product,
    lp_norm,
    make_grid,
    recenter,
    sobolev_norm,
    symmetrize,
    transform,
)
from .snapshots import load_field, save_field
from .operators import (
    OperatorSpec,
    apply_multiplier,
    nonrelativistic,
    pseudo_relativistic,
    symbol,
    symbol_defect,
    symbol_gap_ratio,
    symbol_gap_scan,
    taylor_residual,
)
from .nonlinearity import (
    NonlinearitySpec,
    RatioStats,
    evaluate,
    hartree,
    hartree_potential,
    linearize,
    multilinear_ratio,
    power,
    taylor_remainder,
)
from .ground_state import (
    GroundStateError,
    GroundStateResult,
    SolverConfig,
    action,
    gaussian_guess,
    initialization_stability,
    residual,
    solve,
)
from .limit_lab import (
    ConvergenceRecord,
    GapEigensolveError,
    RateFit,
    SweepError,
    convergence_record,
    fit_rate,
    h_minus1_residual,
    linearization_identity_residual,
    nondegeneracy_gap,
    optimality_forms,
    optimality_functional,
    sobolev_ladder,
    sweep,
)

__version__ = "0.1.0"
