"""Finite truncated simplicial sets with decidable morphism classifiers.

Every public name loads on first use (PEP 562): ``import ssetkit`` loads no
submodule, and reading ``ssetkit.pullback`` imports ``ssetkit.limits`` then.
So a command-line call compiles only the modules its command runs.
"""

from importlib import import_module as _import_module

# the public names each submodule defines; every submodule is public too
_EXPORTS = {
    "core": (
        "TruncatedSSet", "ValidationFailure", "ValidationReport", "discrete_sset",
        "disjoint_union", "empty_sset", "validate", "vertex_table",
    ),
    "standard": (
        "StandardObjectSpec", "boundary_spec", "build_standard", "circle_spec",
        "cyclic_cover_spec", "horn_spec", "monotone_maps", "simplex_spec", "union_spec",
    ),
    "maps": (
        "MapClass", "SimplicialMap", "classify", "compose", "copair", "cyclic_cover_projection",
        "fold_map", "identity_map", "point_inclusion", "terminal_map", "validate_map",
    ),
    "limits": ("DiagonalData", "FiberProduct", "diagonal", "product", "pullback"),
    "components": (
        "ComponentPartition", "injection_cartesian_check", "pi0", "pi0_map",
        "trivial_covering_check",
    ),
    "report": (
        "AmbiguousLift", "CheckReport", "ComparisonClash", "ComparisonMiss", "ComponentLeak",
        "MissingHornFiller", "MissingLift",
    ),
    "checks": (
        "CoveringAgreement", "SeparabilityAgreement", "covering_agreement", "covering_check",
        "evaluate_instance", "kan_check", "revalidate_witness", "separability_agreement",
        "separable_direct", "separable_via_lifting",
    ),
    "groupoids": (
        "FiniteGroupoid", "GroupoidPresentation", "codiscrete_groupoid",
        "cyclic_group_groupoid", "nerve", "pi1_presentation",
    ),
    "harness": (
        "CampaignReport", "GenConfig", "curated_instances", "gen_morphism", "gen_sset",
        "quotient", "run_campaign",
    ),
    "io": (),
}
# each public name, and the submodule it is read from
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_HOME[name]}", __name__)
    value = module if name == _HOME[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
