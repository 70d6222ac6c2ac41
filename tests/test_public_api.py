"""The public surface, written out: a change to ``bellbox.__all__`` shows
up as a change to this list, which a change to the public API must
explain in the README and CHANGES.md."""

import bellbox

PUBLIC = [
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


def test_public_names_are_the_written_list():
    assert sorted(bellbox.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(bellbox, name) is not None, name
