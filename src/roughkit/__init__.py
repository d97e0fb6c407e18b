"""roughkit: geometric rough paths of arbitrary Hölder roughness.

Shuffle Hopf algebra on words, piecewise-linear rough path lifts, controlled
rough paths and rough integration, Davie-expansion RDE solving with flow
derivatives, and rough transport / continuity equation solvers and
verifiers.

Submodules load on first use (PEP 562): ``import roughkit`` runs no
submodule, and ``roughkit.solve_rde`` or ``roughkit.rde`` imports its owner
then.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "algebra": (
        "EMPTY_WORD", "GroupTensor", "TruncatedTensor", "Word", "antipode", "convolution", "group_distance",
        "group_inverse", "homogeneous_norm", "max_coeff_diff", "tensor_exp", "tensor_log", "word",
        "words_of_length", "words_up_to",
    ),
    "controlled": (
        "ControlledPath", "ControlledNorms", "RoughIntegralResult", "check_controlled", "compose",
        "constant_controlled", "controlled_norms", "coordinate_lift", "rough_integral",
    ),
    "errors": ("NumericalFailure",),
    "functions": (
        "ComposedFunction", "FiniteDifferenceFunction", "JetFunction", "PolynomialFunction",
        "SmoothFunction", "SumFunction", "TrigPolynomial", "compose_partial",
        "function_from_json_dict", "function_to_json_dict", "product_partial",
    ),
    "jets": (
        "FlowJetPath", "JetSpace", "JetVectorField", "jet_apply", "jet_compose", "lift_system",
        "partial_davie_check", "partial_davie_expansion", "solve_flow_jets", "terminal_flow_jets",
    ),
    "rde": (
        "DerivedFieldTable", "ItoReport", "RdeSolution", "VectorFieldSystem", "davie_step",
        "derive_fields", "faa_di_bruno", "gamma_by_composition", "gamma_operator", "ito_check",
        "solve_rde", "system_from_json_dict", "system_to_json_dict",
    ),
    "regression": ("OrderCheck", "OrderFit", "check_order", "dyadic_pairs"),
    "roughpath": (
        "GeometricRoughPath", "PiecewiseLinearPath", "hoelder_level", "lift_pl", "sample_fbm",
        "solve_partition",
    ),
    "rpde": (
        "DualityReport", "FlowSolutionOracle", "GradedReport", "ParticleEvolution", "ParticleMeasure",
        "TransportProblem", "duality_check", "push_measure", "solve_continuity", "solve_transport",
        "verify_continuity", "verify_transport",
    ),
    "shuffles": ("CharacterCheck", "DeshuffleTable", "deconcat", "deshuffles", "is_character", "shuffle",
                 "shuffle_coefficient"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "commands", "selftest"}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
