"""Markov chains indexed by rooted d-trees.

Adjacency, transition, and weight matrices all follow one orientation:
rows index children, columns index parents.
"""

__version__ = "0.1.0"

from .alphabet_graph import (
    AdjacencyModel,
    PeriodStructure,
    find_a0_and_period,
    is_irreducible,
    linear_spectral_radius,
    model_from_dict,
    reduce_a0,
)
from .dimension import (
    DimensionReport,
    ExponentVector,
    OptimalMeasure,
    dim_objective,
    hausdorff_dimension,
    optimal_markov_measure,
    ratios_to_simplex,
    simplex_to_ratios,
)
from .rate_function import (
    PressureResult,
    RateCurve,
    WeightedChainModel,
    chain_from_matrices,
    domain_endpoints,
    lln_beta_bounds,
    lln_limit,
    pressure,
    rate,
    rate_curve,
    reciprocal_on_support,
    tilted_matrix,
)
from .stochastic import (
    ExperimentReport,
    SampleConfig,
    lln_experiment,
)
from .transfer_op import (
    EigenPair,
    entropy_iterate,
    principal_eigenpair,
    psi,
)
from .tree_core import lattice_size

__all__ = [name for name in dir() if not name.startswith("_")]
