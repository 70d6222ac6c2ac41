"""Black-box Bell nonlocality analysis.

Given only the classical input/output statistics of a box, this package
decides whether they admit a local deterministic explanation, derives a
violated inequality when they do not, checks for outright signalling, and
simulates the quantum setups (including lossy detectors) that produce
such statistics in the first place.
"""

from .analysis import (
    Classification,
    MembershipResult,
    ThresholdResult,
    Verdict,
    chsh_value,
    classify,
    derive_critical_inequality,
    efficiency_threshold,
    membership,
    visibility_threshold,
)
from .errors import SizeCapError, StalledError, ValidationError
from .polytope import (
    BellFunctional,
    LocalModel,
    canonicalize,
    chsh_functional,
    enumerate_facets,
    local_bound,
    random_local_model,
    relabellings,
)
from .quantum import (
    BellSetup,
    MeasurementSet,
    QuantumState,
    behavior_from_setup,
    bin_last_outcome,
    lift_with_efficiency,
    named_setup,
    random_setup,
)
from .scenario import (
    Behavior,
    NoSignallingReport,
    Scenario,
    flat_index,
    mix,
    named_behavior,
    no_signalling_defect,
    validate_behavior,
)

__all__ = [
    "Behavior",
    "BellFunctional",
    "BellSetup",
    "Classification",
    "LocalModel",
    "MeasurementSet",
    "MembershipResult",
    "NoSignallingReport",
    "QuantumState",
    "Scenario",
    "SizeCapError",
    "StalledError",
    "ThresholdResult",
    "ValidationError",
    "Verdict",
    "behavior_from_setup",
    "bin_last_outcome",
    "canonicalize",
    "chsh_functional",
    "chsh_value",
    "classify",
    "derive_critical_inequality",
    "efficiency_threshold",
    "enumerate_facets",
    "flat_index",
    "lift_with_efficiency",
    "local_bound",
    "membership",
    "mix",
    "named_behavior",
    "named_setup",
    "no_signalling_defect",
    "random_local_model",
    "random_setup",
    "relabellings",
    "validate_behavior",
    "visibility_threshold",
]

__version__ = "0.1.0"
