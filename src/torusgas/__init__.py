"""Desk-scale numerical laboratory for a compressible ideal gas on the torus.

The package is organized along the pipeline: ``spectral`` (Fourier
calculus and Sobolev norms), ``euler`` (coefficient matrices and the
spectral right-hand side), ``families`` (closed-form exact and
approximate solution families), ``solver`` (RK4 method of lines),
``inequalities`` (empirical checks of the analytic toolbox), and ``lab``
(experiment runners and reports) with a CLI in ``cli``.  Each public name
is imported from its own module, e.g. ``from torusgas.lab import
ExperimentConfig, run_experiment``, the one way to build and to run an
experiment.
"""

__version__ = "0.1.0"
