"""The package namespace: the public names, each served from its own module."""

import sys
import types

import pytest

import ssetkit as sk

PUBLIC = [
    "AmbiguousLift", "CampaignReport", "CheckReport", "ComparisonClash", "ComparisonMiss",
    "ComponentLeak", "ComponentPartition", "CoveringAgreement", "DiagonalData", "FiberProduct",
    "FiniteGroupoid", "GenConfig", "GroupoidPresentation", "MapClass", "MissingHornFiller",
    "MissingLift", "SeparabilityAgreement", "SimplicialMap", "StandardObjectSpec",
    "TruncatedSSet", "ValidationFailure", "ValidationReport", "boundary_spec", "build_standard",
    "checks", "circle_spec", "classify", "codiscrete_groupoid", "components", "compose",
    "copair", "core", "covering_agreement", "covering_check", "curated_instances",
    "cyclic_cover_projection", "cyclic_cover_spec", "cyclic_group_groupoid", "diagonal",
    "discrete_sset", "disjoint_union", "empty_sset", "evaluate_instance", "fold_map",
    "gen_morphism", "gen_sset", "groupoids", "harness", "horn_spec", "identity_map",
    "injection_cartesian_check", "io", "kan_check", "limits", "maps", "monotone_maps", "nerve",
    "pi0", "pi0_map", "pi1_presentation", "point_inclusion", "product", "pullback", "quotient",
    "report", "revalidate_witness", "run_campaign", "separability_agreement",
    "separable_direct", "separable_via_lifting", "simplex_spec", "standard", "terminal_map",
    "trivial_covering_check", "union_spec", "validate", "validate_map", "vertex_table",
]


def test_public_names_are_pinned():
    assert sk.__all__ == PUBLIC


def test_each_name_is_the_object_its_module_defines():
    for name in PUBLIC:
        value = getattr(sk, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"ssetkit.{name}"], name
        else:
            assert value.__module__.startswith("ssetkit."), name
            assert value is getattr(sys.modules[value.__module__], name), name
    assert sk.pullback is sk.limits.pullback
    assert sk.evaluate_instance is sk.harness.evaluate_instance


def test_dir_and_star_import_serve_every_name():
    assert set(PUBLIC) <= set(dir(sk))
    namespace: dict = {}
    exec("from ssetkit import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(PUBLIC)
    assert all(namespace[name] is getattr(sk, name) for name in PUBLIC)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="'ssetkit'"):
        sk.no_such_name
