"""Desk-scale numerical laboratory for a compressible ideal gas on the torus.

The package is organized along the pipeline: ``spectral`` (Fourier
calculus and Sobolev norms), ``euler`` (coefficient matrices and the
spectral right-hand side), ``families`` (closed-form exact and
approximate solution families), ``solver`` (RK4 method of lines),
``inequalities`` (empirical checks of the analytic toolbox), and ``lab``
(experiment runners and reports) with a CLI in ``cli``.
:func:`lab.run_experiment` is the one way to run an experiment.
"""

from . import euler, families, inequalities, lab, solver, spectral
from .euler import GasParams, State
from .families import FamilyParams
from .lab import ExperimentConfig, default_config, run_experiment
from .solver import SolveConfig, Trajectory
from .spectral import Field, TorusGrid, make_grid

__all__ = [
    "spectral",
    "euler",
    "families",
    "solver",
    "inequalities",
    "lab",
    "TorusGrid",
    "Field",
    "make_grid",
    "GasParams",
    "State",
    "FamilyParams",
    "SolveConfig",
    "Trajectory",
    "ExperimentConfig",
    "default_config",
    "run_experiment",
]

__version__ = "0.1.0"
