"""Recurrence times of quantum mixed states with discrete spectra:
theoretical brackets, exact phase evolution, empirical grid searches and
the supporting flat-torus / sphere geometry."""

from .bounds import (
    BoundReport,
    bhattacharyya_estimate,
    dimension_bound,
    energy_bounds,
    peres_estimate,
    reduce_to_support,
    sin_power_integral,
    threshold_to_epsilon,
    truncated_bounds,
)
from .evolution import EvolutionKernel, evolve, make_kernel
from .metrics import (
    energy_stats,
    fidelity,
    fvg_check,
    trace_distance_norm,
)
from .search import (
    Grid,
    RecurrenceResult,
    StroboscopicResult,
    collect_samples,
    default_dt,
    fidelity_series,
    find_recurrence,
    stroboscopic_recurrence,
)
from .states import (
    DensityMatrix,
    Hamiltonian,
    gibbs_state,
    pure_state,
    random_density,
    system_from_dict,
    validate_density,
)
from .torus import (
    FiniteMetricSpace,
    FlatTorus,
    injectivity_radius,
    metric_recurrence_oracle,
    sphere_ball_volume,
    torus_from_state,
    torus_phase_at,
    torus_volume,
    tube_volume,
    wrap_angles,
)
from .truncation import TruncationResult, choose_N, delta_time_invariance_check, truncate

__all__ = [
    "BoundReport",
    "DensityMatrix",
    "EvolutionKernel",
    "FiniteMetricSpace",
    "FlatTorus",
    "Grid",
    "Hamiltonian",
    "RecurrenceResult",
    "StroboscopicResult",
    "TruncationResult",
    "bhattacharyya_estimate",
    "choose_N",
    "collect_samples",
    "default_dt",
    "delta_time_invariance_check",
    "dimension_bound",
    "energy_bounds",
    "energy_stats",
    "evolve",
    "fidelity",
    "fidelity_series",
    "find_recurrence",
    "fvg_check",
    "gibbs_state",
    "injectivity_radius",
    "make_kernel",
    "metric_recurrence_oracle",
    "peres_estimate",
    "pure_state",
    "random_density",
    "reduce_to_support",
    "sin_power_integral",
    "sphere_ball_volume",
    "stroboscopic_recurrence",
    "system_from_dict",
    "threshold_to_epsilon",
    "torus_from_state",
    "torus_phase_at",
    "torus_volume",
    "trace_distance_norm",
    "truncate",
    "truncated_bounds",
    "tube_volume",
    "validate_density",
    "wrap_angles",
]

__version__ = "0.1.0"
