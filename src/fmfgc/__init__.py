"""Solver and particle simulator for mean field games of controls driven by
the fractional Laplacian on the torus.

The package computes the equilibrium triple (value function, density
flow, joint state-control measure) for the quadratic-cost model with
smoothing convolution coupling, and cross-checks it against a particle
system driven by subordinated Gaussian jumps.  ``fmfgc validate`` runs
the acceptance suite; see the individual modules for the building
blocks.
"""

from .equilibrium import (
    EquilibriumSolution,
    LoopConfig,
    analytic_base,
    equilibrium_certificate,
    solve_equilibrium,
    sweep_theta,
)
from .errors import FmfgcError
from .fokker_planck import FpSolution, initial_density, solve_forward
from .hjb import HjbSolution, hjb_diagnostics, solve_backward
from .manifest import RunManifest, default_manifest, parse_config
from .measures import (
    GridMeasure,
    JointControlMeasure,
    MeasurePath,
    lambda_inf,
    lambda_q,
    wasserstein_1d,
)
from .models import QuadraticModel
from .mu_solver import MuSolveConfig, solve_mu
from .particles import (
    HolderReport,
    ParticlePath,
    empirical_measure,
    holder_wasserstein_check,
    sample_positions,
    sample_stable_increment,
    simulate_sde,
)
from .spectral import SpectralGrid, TimeGrid
from .validation import AcceptanceContext, run_all, run_criterion

__version__ = "0.1.0"

__all__ = [
    "AcceptanceContext",
    "EquilibriumSolution",
    "FmfgcError",
    "FpSolution",
    "GridMeasure",
    "HjbSolution",
    "HolderReport",
    "JointControlMeasure",
    "LoopConfig",
    "MeasurePath",
    "MuSolveConfig",
    "ParticlePath",
    "QuadraticModel",
    "RunManifest",
    "SpectralGrid",
    "TimeGrid",
    "analytic_base",
    "default_manifest",
    "empirical_measure",
    "equilibrium_certificate",
    "hjb_diagnostics",
    "holder_wasserstein_check",
    "initial_density",
    "lambda_inf",
    "lambda_q",
    "parse_config",
    "run_all",
    "run_criterion",
    "sample_positions",
    "sample_stable_increment",
    "simulate_sde",
    "solve_backward",
    "solve_equilibrium",
    "solve_forward",
    "solve_mu",
    "sweep_theta",
    "wasserstein_1d",
    "__version__",
]
