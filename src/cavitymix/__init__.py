"""Mode mixing, particle creation, and entanglement in a rigid
accelerated cavity, to first order in the dimensionless acceleration
h = aL.

Natural units (c = hbar = 1) everywhere except the `experiment` module,
which converts a concrete optical-cavity setup to SI rates.
"""

__version__ = "0.1.0"

# Every scenario kind needs numpy (through `spectrum`) and PyYAML (through
# the scenario loader), so the root loads both up front.  What waits for
# first use is the package's own modules: each public name below is imported
# from its submodule on first use (PEP 562) and then cached as a module
# global, so a scenario run loads only the modules of its kind.
import numpy as _numpy  # noqa: F401
import yaml as _yaml  # noqa: F401

# Each public name by the submodule that defines it.
_SOURCES = {
    "bogoliubov": (
        "FIRST_ORDER_SUP_H", "FirstOrderBogoliubovMap", "IdentityReport", "StaticCoefficients",
        "compose", "first_order_map", "static_coefficients", "verify_first_order_identities",
    ),
    "experiment": (
        "CircularMotion", "ExperimentPlan", "LinearMotion", "PlanReport", "circular_report", "plan",
    ),
    "gaussian": (
        "CovarianceState", "SymplecticPairingError", "TwoModeReduction", "apply_symplectic",
        "first_order_negativity", "negativity", "negativity_grid", "partial_transpose",
        "reduce_to_pair", "squeezed_vacuum", "symplectic_eigenvalues", "symplectic_form",
        "symplectic_from_map", "symplectic_residual",
    ),
    "profiles": (
        "AccelerationProfile", "OscillatoryIntegralResult", "PiecewiseConstantProfile",
        "QuadratureError", "RampProfile", "RigidityReport", "SampledProfile", "SinusoidalProfile",
        "WindowedSinusoidProfile", "oscillatory_integral", "validate_rigidity",
    ),
    "resonance": (
        "ResonanceCatalog", "ResonanceEntry", "ResonanceKind", "catalog_1d", "displacement_h0",
        "paraxial_mixing_growth", "paraxial_mixing_omega", "paraxial_validity_ratio",
    ),
    "scenarios": ("ResultTable", "ScenarioError", "load_scenario", "run_scenario"),
    "spectrum": (
        "RIGIDITY_BOUND", "Cavity1D", "Cavity3D", "omega_diff_matrix", "omega_sum_matrix",
        "omega_vector", "reduce_to_effective_1d",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name: str):
    source = name if name in _SOURCES else _MODULE_OF.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's path, which `python -X importtime` records;
    # it binds the submodule as a global of this package.
    __import__(f"{__name__}.{source}")
    if name == source:  # the submodule itself, as `cavitymix.profiles`
        return globals()[name]
    value = globals()[name] = getattr(globals()[source], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCES, *_MODULE_OF})


__all__ = ["__version__", *_MODULE_OF]
