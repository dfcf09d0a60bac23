"""Acceptance gate: one test per advertised guarantee.

Each test prints a single ACCEPTANCE line (visible under pytest -s) and
then asserts.  The shared 500-trial campaign fixture lives in conftest.
"""

import hashlib
import math
import time

import pytest

import oracles as orc
import ssetkit as sk
from ssetkit.checks import (
    covering_check,
    kan_check,
    separable_direct,
    separable_via_lifting,
)
from ssetkit.components import injection_cartesian_check, pi0, trivial_covering_check
from ssetkit.core import validate
from ssetkit.harness import evaluate_instance
from ssetkit.io import dumps_canonical
from ssetkit.limits import diagonal, pullback
from ssetkit.maps import (
    classify,
    identity_map,
    point_inclusion,
    terminal_map,
    validate_map,
)
from ssetkit.standard import build_standard, circle_spec, simplex_spec


def _line(number: int, ok: bool, description: str) -> bool:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} - {description}")
    return ok


def _instance_valid(h) -> bool:
    return validate(h.source).ok and validate(h.target).ok and validate_map(h).ok


@pytest.fixture(scope="module")
def window():
    """First 120 trials of the campaign config, regenerated directly."""
    cfg = sk.GenConfig(seed=42, trials=500)
    out = []
    for t in range(120):
        family, h = sk.gen_morphism(cfg, t)
        out.append((family, h, _instance_valid(h)))
    return out


def test_acceptance_1_separability_equivalence(campaign500):
    camp = campaign500
    ok = (
        camp.config["seed"] == 42
        and camp.config["trials"] == 500
        and camp.config["max_nondegenerate_dim"] == 2
        and camp.config["max_cells_per_degree"] == 6
        and camp.scored > 0
        and camp.separability_disagreements == []
        and camp.separability_agreements == camp.scored
        and camp.runtime_seconds < 300.0
    )
    assert _line(
        1,
        ok,
        f"diagonal and lifting separability agree on all {camp.scored} scored"
        f" instances in {camp.runtime_seconds:.1f}s",
    ), camp.separability_disagreements


def test_acceptance_2_covering_equivalence_on_kan_instances(campaign500, window):
    camp = campaign500
    # direct restatement on a window: failing coverings of Kan maps are
    # always ambiguity witnesses, never missing lifts
    restated = 0
    clean = True
    for family, h, valid in window:
        if not valid or not kan_check(h).verdict:
            continue
        cov = covering_check(h)
        sep = separable_direct(h)
        clean = clean and (cov.verdict == sep.verdict)
        if not cov.verdict:
            restated += 1
            clean = clean and cov.witness.kind == "ambiguous_lift"
            clean = clean and cov.stats["missing"] == 0
    ok = (
        camp.kan_instances > 0
        and camp.covering_disagreements == []
        and camp.covering_agreements == camp.kan_instances
        and camp.missing_lift_violations == []
        and restated > 0
        and clean
    )
    assert _line(
        2,
        ok,
        f"covering and separability agree on all {camp.kan_instances} Kan"
        " instances; failures are ambiguous lifts only",
    ), (camp.covering_disagreements, camp.missing_lift_violations)


def test_acceptance_3_implication_chain(campaign500, named_maps):
    camp = campaign500
    curated_ok = True
    for name, h in named_maps.items():
        v = evaluate_instance(h)
        curated_ok = curated_ok and v.implication_failures() == []
    nonvacuous = (
        camp.adequacy["trivial-covering"] > 0
        and camp.adequacy["separable-covering"] > 0
        and camp.adequacy["non-kan"] > 0
    )
    ok = camp.implication_violations == [] and curated_ok and nonvacuous
    assert _line(
        3,
        ok,
        "trivial => covering => kan and covering => separable hold on the"
        f" campaign and on {len(named_maps)} named fixtures",
    ), camp.implication_violations


def test_acceptance_4_injection_matches_trivial_covering(campaign500, window):
    camp = campaign500
    compared = 0
    agree = True
    for family, h, valid in window:
        if not valid or not classify(h).injective:
            continue
        compared += 1
        agree = agree and (
            injection_cartesian_check(h).verdict == trivial_covering_check(h).verdict
        )
    ok = camp.injection_violations == [] and compared > 0 and agree
    assert _line(
        4,
        ok,
        f"component containment matches the trivial covering verdict on"
        f" {compared} injective instances (plus the campaign)",
    ), camp.injection_violations


def test_acceptance_5_named_instance_verdicts(named_maps):
    # (covering, separable, kan, trivial)
    expected = {
        "curated:cyclic-double-cover": (True, True, True, False),
        "curated:interval-to-point": (False, False, False, False),
        "curated:fold-interval": (True, True, True, True),
        "curated:circle-nerve-projection": (False, False, True, False),
    }
    ok = True
    slowest = 0.0
    for name, want in expected.items():
        h = named_maps[name]
        t0 = time.perf_counter()
        got = (
            covering_check(h).verdict,
            separable_direct(h).verdict,
            kan_check(h).verdict,
            trivial_covering_check(h).verdict,
        )
        lift = separable_via_lifting(h).verdict
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        ok = ok and got == want and lift == want[1] and elapsed < 1.0
    assert _line(
        5,
        ok,
        f"all named instances have their exact verdict profiles,"
        f" slowest {slowest * 1000:.0f}ms",
    )


def test_acceptance_6_structural_oracles():
    n = 2
    interval = build_standard(simplex_spec(1), n)
    circle = build_standard(circle_spec(), n)
    point = build_standard(simplex_spec(0), n)
    cospans = {
        "product": (terminal_map(interval), terminal_map(circle)),
        "two-vertices": (point_inclusion(interval, 0), point_inclusion(interval, 1)),
        "deck": (sk.cyclic_cover_projection(2, n), sk.cyclic_cover_projection(2, n)),
        "identity-side": (terminal_map(circle), identity_map(point)),
    }
    zs = [sk.empty_sset(n), point, interval, circle]
    universal = True
    for f, g in cospans.values():
        for X in (f.source, g.source, f.target):
            universal = universal and all(c <= 6 for c in X.cells)
        fp = pullback(f, g)
        for Z in zs:
            universal = universal and orc.universal_property_holds(f, g, fp, Z)

    counts = True
    for dim in range(5):
        simplex = build_standard(simplex_spec(dim), 5)
        for m in range(5):
            counts = counts and simplex.cells[m] == math.comb(dim + m + 1, dim)
        part = pi0(simplex)
        counts = counts and part.count == 1
        counts = counts and len(orc.bfs_components(simplex)) == 1

    ok = universal and counts
    assert _line(
        6,
        ok,
        "pullbacks satisfy the exhaustive universal property; simplex cell"
        " counts and connectivity match closed forms",
    )


def test_acceptance_7_witness_soundness(campaign500, window, named_maps):
    camp = campaign500
    checked = 0
    sound = True
    instances = [h for _, h, valid in window if valid]
    instances.extend(named_maps.values())
    for h in instances:
        reports = [
            covering_check(h),
            kan_check(h),
            separable_via_lifting(h),
            trivial_covering_check(h),
        ]
        if classify(h).injective:
            reports.append(injection_cartesian_check(h))
        for rep in reports:
            if rep.witness is None:
                continue
            checked += 1
            sound = sound and sk.revalidate_witness(h, rep)
    ok = camp.witness_failures == [] and checked > 0 and sound
    assert _line(
        7,
        ok,
        f"{checked} directly recomputed witnesses plus every campaign witness"
        " revalidate from the raw tables",
    ), camp.witness_failures


def test_acceptance_8_kan_diagonal_is_separability(named_maps):
    # the paper's definition read directly: h is separable when its
    # diagonal A -> A x_B A is a (Kan) fibration; shares no scan with
    # separable_direct's component containment
    cfg = sk.GenConfig(seed=5, trials=40)
    instances = list(named_maps.items())
    for t in range(cfg.trials):
        family, h = sk.gen_morphism(cfg, t)
        if _instance_valid(h):
            instances.append((f"trial:{t}:{family}", h))
    agree = replayed = negatives = 0
    for name, h in instances:
        dd = diagonal(h)
        rep = kan_check(dd.delta)
        agree += rep.verdict == separable_direct(h, dd).verdict
        if not rep.verdict:
            negatives += 1
            replayed += sk.revalidate_witness(dd.delta, rep)
    ok = agree == len(instances) and replayed == negatives > 0
    assert _line(
        8,
        ok,
        f"kan_check on the diagonal agrees with separable_direct on all"
        f" {len(instances)} maps; {negatives} horn witnesses replay",
    ), (agree, len(instances), replayed, negatives)


# sha256 of the canonical campaign(42, 500) document, runtime left out
CAMPAIGN500_SHA256 = "f7cf69f946ed3a3c2470fbdac2c181c3cff8b7ba277331fec86a9922070a94e5"


def test_acceptance_9_campaign_document_is_unchanged(campaign500):
    doc = campaign500.to_doc(include_runtime=False)
    digest = hashlib.sha256(dumps_canonical(doc).encode()).hexdigest()
    assert _line(
        9,
        digest == CAMPAIGN500_SHA256,
        f"the campaign(42, 500) document hashes to {digest[:16]}...",
    ), digest
