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
from numpy import ndarray as _ndarray
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
        "RIGIDITY_BOUND", "Cavity1D", "Cavity3D", "omega_vector", "reduce_to_effective_1d",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
_MISSING = object()  # the default of a value type's required field


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


class _Value:
    """Base of the package's immutable value types; it generates no code.

    Fields are a subclass's own non-`ClassVar` annotations; class attributes are defaults.
    `__post_init__` may normalise one with `object.__setattr__`; `eq=False` means identity.
    Every ndarray field is read-only once built; copies and pickles rebuild through `__init__`.
    """

    _fields: dict[str, object] = {}  # name: default or _MISSING, in order

    def __init_subclass__(cls, eq: bool = True) -> None:
        own = {name: vars(cls).get(name, _MISSING) for name, kind in cls.__annotations__.items()
               if not str(kind).startswith(("ClassVar", "typing.ClassVar"))}
        cls._fields = {**cls._fields, **own}  # after the bases' fields
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        fields, store = iter(self._fields.items()), object.__setattr__  # vars() would slow reads
        for value, (name, _) in zip(args, fields):  # args first: no field is skipped
            if name in kwargs:
                raise TypeError(f"{type(self).__name__}() got multiple values for {name!r}")
            store(self, name, value)
        for name, default in fields:
            value = kwargs.pop(name, default)
            if value is _MISSING:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            store(self, name, value)
        if kwargs or len(args) > len(self._fields):
            extra = [*kwargs, *args[len(self._fields) :]]
            raise TypeError(f"{type(self).__name__}() got unexpected arguments {extra}")
        self.__post_init__()
        for name in self._fields:  # not _asdict(): building the dict costs more
            value = getattr(self, name)
            if isinstance(value, _ndarray):
                value.setflags(False)  # write=False; by keyword it costs twice as much

    def _asdict(self) -> dict:  # not vars(): it would slow every later read
        return {name: getattr(self, name) for name in self._fields}

    def __reduce__(self):
        return type(self), tuple(self._asdict().values())

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} field {name!r} cannot change")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        items = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({items})"

    def __eq__(self, other):  # an instance holds exactly its fields
        return self._asdict() == other._asdict() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))


__all__ = ["__version__", *_MODULE_OF]
