"""Recurrence times of quantum mixed states with discrete spectra:
theoretical brackets, exact phase evolution, empirical grid searches and
the supporting flat-torus / sphere geometry.

`import qrecur` loads no submodule. Each exported name, and each
submodule name, is imported on first access (PEP 562), so a CLI call
compiles only the modules its subcommand runs."""

_EXPORTS = {
    "bounds": (
        "BoundReport",
        "bhattacharyya_estimate",
        "dimension_bound",
        "energy_bounds",
        "peres_estimate",
        "reduce_to_support",
        "sin_power_integral",
        "threshold_to_epsilon",
        "truncated_bounds",
    ),
    "evolution": ("EvolutionKernel", "evolve", "make_kernel"),
    "metrics": ("energy_stats", "fidelity", "fvg_check", "trace_distance_norm"),
    "search": (
        "Grid",
        "RecurrenceResult",
        "StroboscopicResult",
        "collect_samples",
        "default_dt",
        "fidelity_series",
        "find_recurrence",
        "stroboscopic_recurrence",
    ),
    "states": (
        "DensityMatrix",
        "Hamiltonian",
        "gibbs_state",
        "pure_state",
        "random_density",
        "system_from_dict",
        "validate_density",
    ),
    "torus": (
        "FiniteMetricSpace",
        "FlatTorus",
        "injectivity_radius",
        "metric_recurrence_oracle",
        "sphere_ball_volume",
        "torus_from_state",
        "torus_phase_at",
        "torus_volume",
        "tube_volume",
        "wrap_angles",
    ),
    "truncation": ("TruncationResult", "choose_N", "delta_time_invariance_check", "truncate"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors", "verify"}

__all__ = sorted(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    module = name if name in _SUBMODULES else _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import binds the submodule here; unlike importlib.import_module,
    # the import statement's machinery is what -X importtime reports
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
