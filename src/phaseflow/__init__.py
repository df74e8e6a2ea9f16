"""Phaseflow: energy-stable simulation and long-time diagnostics for
generalized phase-field systems with convex heat-flux laws."""

from .dynamics import (SourceSpec, State, StepReport, Stepper, Trajectory,
                       TrajectoryConfig, free_energy, run, step,
                       zero_source)
from .grids import BoundarySpec, Field, Grid, OperatorWorkspace, integrate
from .models import (ConvexPotential, LatentHeat, ModelSpec,
                     NonconvexPotential, ValidationReport, builtin,
                     builtin_names, divided_difference_lambda, evaluate,
                     regularize, validate_hypotheses)
from .oracle import oracle_step
from .steady import (SteadyState, check_range, residual_stationary,
                     solve_catalog, solve_stationary)

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec", "ConvexPotential", "Field", "Grid", "LatentHeat",
    "ModelSpec", "NonconvexPotential", "OperatorWorkspace", "SourceSpec",
    "State", "StepReport", "SteadyState", "Stepper", "Trajectory",
    "TrajectoryConfig", "ValidationReport", "builtin", "builtin_names",
    "check_range", "divided_difference_lambda", "evaluate", "free_energy",
    "integrate", "oracle_step", "regularize", "residual_stationary",
    "run", "solve_catalog", "solve_stationary", "step",
    "validate_hypotheses", "zero_source",
]
