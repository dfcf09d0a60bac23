"""Finite truncated simplicial sets with decidable morphism classifiers."""

from .core import (
    TruncatedSSet,
    ValidationFailure,
    ValidationReport,
    discrete_sset,
    disjoint_union,
    empty_sset,
    validate,
    vertex_table,
)
from .standard import (
    StandardObjectSpec,
    boundary_spec,
    build_standard,
    circle_spec,
    cyclic_cover_spec,
    horn_spec,
    monotone_maps,
    simplex_spec,
    union_spec,
)
from .maps import (
    MapClass,
    SimplicialMap,
    classify,
    compose,
    copair,
    cyclic_cover_projection,
    fold_map,
    identity_map,
    point_inclusion,
    terminal_map,
    validate_map,
)
from .limits import DiagonalData, FiberProduct, diagonal, product, pullback
from .components import (
    ComponentPartition,
    injection_cartesian_check,
    pi0,
    pi0_map,
    trivial_covering_check,
)
from .report import (
    AmbiguousLift,
    CheckReport,
    ComparisonClash,
    ComparisonMiss,
    ComponentLeak,
    MissingHornFiller,
    MissingLift,
)
from .checks import (
    CoveringAgreement,
    SeparabilityAgreement,
    covering_agreement,
    covering_check,
    kan_check,
    revalidate_witness,
    separability_agreement,
    separable_direct,
    separable_via_lifting,
)
from .groupoids import (
    FiniteGroupoid,
    GroupoidPresentation,
    codiscrete_groupoid,
    cyclic_group_groupoid,
    nerve,
    pi1_presentation,
)
from .harness import (
    CampaignReport,
    GenConfig,
    curated_instances,
    evaluate_instance,
    gen_morphism,
    gen_sset,
    quotient,
    run_campaign,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
