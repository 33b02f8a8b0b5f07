"""Numerical laboratory for ensemble-action quantization on 1D/2D grids.

The package splits along the pipeline it implements: grids and stencils
(`grid`), density/phase fields and potentials (`fields`), the extended
action (`action`), vacuum-fluctuation transition statistics
(`fluctuation`), the ensemble Hamiltonian, constraint functionals, their
gradients and brackets (`constraints`), eigen/time solvers (`solvers`),
the two-body translation-invariant system (`bipartite`), and the `varq`
command line front end (`cli`).
"""

from .grid import (
    DIRICHLET,
    PERIODIC,
    ComplexField,
    GridMismatchError,
    GridSpec,
    RealField,
    diff_values,
    integrate_values,
    l2_norm,
)
from .fields import (
    Free,
    Harmonic,
    MadelungState,
    PairwiseRelative,
    PhysicalParams,
    Polynomial,
    potential_values,
)
from .action import (
    bohm_potential,
    information_density,
    information_metric,
    numeric_functional_gradient,
)
from .fluctuation import (
    FluctuationSample,
    NonConvergenceError,
    TransitionDistribution,
    fluctuation_sigma,
    kl_divergence,
    optimal_transition,
    optimize_transition_numeric,
    sample_fluctuations,
)
from .constraints import (
    DensityStationarity,
    EnsembleHamiltonian,
    LocalMomentum,
    classical_consistency,
    functional_derivative,
    poisson_bracket,
    stationarity_residuals,
    weak_equality,
)
from .solvers import (
    DensityFloorError,
    apply_hamiltonian,
    eigensolve_1d,
    propagate_madelung,
    propagate_wavefunction,
    quantization_route_report,
    vanishing_momentum_scenario,
)
from .bipartite import (
    BipartiteParams,
    lift_relative,
    pair_grid,
    relative_grid,
    three_route_comparison,
    translation_residual,
)

__version__ = "0.1.0"

__all__ = [
    "DIRICHLET",
    "PERIODIC",
    "ComplexField",
    "GridMismatchError",
    "GridSpec",
    "RealField",
    "diff_values",
    "integrate_values",
    "l2_norm",
    "Free",
    "Harmonic",
    "MadelungState",
    "PairwiseRelative",
    "PhysicalParams",
    "Polynomial",
    "potential_values",
    "bohm_potential",
    "information_density",
    "information_metric",
    "numeric_functional_gradient",
    "FluctuationSample",
    "NonConvergenceError",
    "TransitionDistribution",
    "fluctuation_sigma",
    "kl_divergence",
    "optimal_transition",
    "optimize_transition_numeric",
    "sample_fluctuations",
    "DensityStationarity",
    "EnsembleHamiltonian",
    "LocalMomentum",
    "classical_consistency",
    "functional_derivative",
    "poisson_bracket",
    "stationarity_residuals",
    "weak_equality",
    "DensityFloorError",
    "apply_hamiltonian",
    "eigensolve_1d",
    "propagate_madelung",
    "propagate_wavefunction",
    "quantization_route_report",
    "vanishing_momentum_scenario",
    "BipartiteParams",
    "lift_relative",
    "pair_grid",
    "relative_grid",
    "three_route_comparison",
    "translation_residual",
    "__version__",
]
