"""Morphism classifiers, their witnesses, and the verdict equivalences."""

import random
from pathlib import Path

import pytest

import oracles as orc
import ssetkit as sk
from ssetkit._record import replace
from ssetkit.checks import (
    covering_agreement,
    covering_check,
    kan_check,
    revalidate_witness,
    separability_agreement,
    separable_direct,
    separable_via_lifting,
)
from ssetkit.core import validate
from ssetkit.harness import GenConfig, gen_morphism
from ssetkit.io import dumps_canonical, load_json, map_from_doc
from ssetkit.limits import diagonal
from ssetkit.maps import (
    SimplicialMap,
    fold_map,
    identity_map,
    terminal_map,
    validate_map,
    validate_parts,
)
from ssetkit.components import injection_cartesian_check
from ssetkit.report import (
    AmbiguousLift,
    CheckReport,
    ComparisonClash,
    ComparisonMiss,
    ComponentLeak,
    MissingHornFiller,
    MissingLift,
)
from ssetkit.standard import build_standard, monotone_maps, parse_spec

GOLDEN = Path(__file__).parent / "golden"


def _valid_generated(seed, count, upto=150):
    cfg = GenConfig(seed=seed, trials=0)
    out = []
    for t in range(upto):
        family, h = gen_morphism(cfg, t)
        if validate(h.source).ok and validate(h.target).ok and validate_map(h).ok:
            out.append((f"trial{t}:{family}", h))
            if len(out) == count:
                break
    return out


def test_named_verdict_profiles(named_maps):
    # (covering, separable, kan, trivial)
    want = {
        "curated:cyclic-double-cover": (True, True, True, False),
        "curated:interval-to-point": (False, False, False, False),
        "curated:fold-interval": (True, True, True, True),
        "curated:circle-nerve-projection": (False, False, True, False),
        "vertex-into-interval": (False, True, False, False),
    }
    for name, (cov, sep, kan, triv) in want.items():
        h = named_maps[name]
        assert covering_check(h).verdict == cov, name
        assert separable_direct(h).verdict == sep, name
        assert separable_via_lifting(h).verdict == sep, name
        assert kan_check(h).verdict == kan, name
        assert sk.trivial_covering_check(h).verdict == triv, name


def test_identity_is_everything(zoo):
    for X in (zoo["interval"], zoo["circle"], zoo["nerve-z2"]):
        h = identity_map(X)
        assert covering_check(h).verdict
        assert separable_direct(h).verdict
        assert separable_via_lifting(h).verdict
        assert kan_check(h).verdict
        assert sk.trivial_covering_check(h).verdict


def test_lifting_witness_golden(named_maps):
    report = separable_via_lifting(named_maps["curated:interval-to-point"])
    assert report.witness == AmbiguousLift(1, 0, 0, 0, 0, 1)


def test_covering_witness_goldens(named_maps):
    # collapsing the interval loses unique lifts only through ambiguity
    report = covering_check(named_maps["curated:interval-to-point"])
    assert isinstance(report.witness, AmbiguousLift)
    assert report.stats["missing"] == 0
    # a vertex inclusion has a missing lift over the nondegenerate edge
    report = covering_check(named_maps["vertex-into-interval"])
    assert report.witness == MissingLift(1, 0, 1, 0)
    assert report.stats["ambiguous"] == 0


def test_kan_witness_golden(named_maps):
    report = kan_check(named_maps["curated:interval-to-point"])
    assert report.witness == MissingHornFiller(2, 0, 0, ((1, 0), (2, 1)))
    assert revalidate_witness(named_maps["curated:interval-to-point"], report)


def test_kan_bound_parameter(named_maps):
    h = named_maps["curated:interval-to-point"]
    assert kan_check(h, bound=1).verdict
    assert not kan_check(h, bound=2).verdict
    assert not kan_check(h, bound=99).verdict  # clamps to the truncation


def test_checks_match_oracles_on_generated():
    for label, h in _valid_generated(seed=31, count=60):
        for got, want in (
            (separable_via_lifting(h), orc.naive_separable_lifting(h)),
            (covering_check(h), orc.naive_covering(h)),
            (kan_check(h), orc.naive_kan(h)),
        ):
            assert got.to_doc() == want.to_doc(), (label, got.check)
        assert separable_direct(h).verdict == separable_via_lifting(h).verdict, label


def test_witnesses_revalidate_on_generated():
    for label, h in _valid_generated(seed=37, count=60):
        for report in (
            separable_via_lifting(h),
            separable_direct(h),
            covering_check(h),
            kan_check(h),
            sk.trivial_covering_check(h),
        ):
            if not report.verdict:
                assert revalidate_witness(h, report), (label, report.check)


def test_tampered_witnesses_fail_revalidation(named_maps):
    h = named_maps["curated:interval-to-point"]
    report = separable_via_lifting(h)
    bad = replace(report.witness, second=report.witness.first)
    assert not revalidate_witness(h, replace(report, witness=bad))
    report = kan_check(h)
    w = report.witness
    bad = replace(w, faces=((1, 1), (2, 1)))
    assert not revalidate_witness(h, replace(report, witness=bad))
    report = covering_check(named_maps["vertex-into-interval"])
    bad = replace(report.witness, base=0)
    assert not revalidate_witness(
        named_maps["vertex-into-interval"], replace(report, witness=bad)
    )
    # in-range witnesses that each in-range rejection of the replay must catch:
    # e is the interval's nondegenerate edge, from vertex 0 to vertex 1
    interval = build_standard(parse_spec("simplex:1"), 3)
    e = interval.nondegenerate(1).index(True)
    s0v1 = interval.degeneracy[0][0][1]
    two = sk.disjoint_union(interval, interval)
    into_two = sk.copair(sk.point_inclusion(two, 0), sk.point_inclusion(two, 2))
    vertex = sk.point_inclusion(interval, 0)
    bogus = [
        # cell 1 lies in component 0, not 1
        (into_two, "injection-cartesian", ComponentLeak(1, 0, 1)),
        # cell 0 is in the image
        (vertex, "injection-cartesian", ComponentLeak(0, 0, 0)),
        # target vertex 1 and source component 0 are not a pullback pair
        (
            sk.point_inclusion(sk.discrete_sset(2, 3), 0),
            "trivial-covering",
            ComparisonMiss(0, 1, 0),
        ),
        # the anchor lies over vertex 0 of e, not its vertex 1
        (vertex, "covering", MissingLift(1, 1, e, 0)),
        # face 1 of the horn lies over vertex 1, not over d_1(e) = 0
        (sk.identity_map(interval), "kan", MissingHornFiller(1, 0, e, ((1, 1),))),
        # d_1 of the two faces differ: vertex 0 against vertex 1
        (terminal_map(interval), "kan", MissingHornFiller(2, 0, 0, ((1, s0v1), (2, e)))),
    ]
    for h, check, w in bogus:
        assert revalidate_witness(h, CheckReport(check, False, w, {})) is False, w
    with pytest.raises(ValueError, match="unknown check"):
        revalidate_witness(vertex, CheckReport("coverage", False, MissingLift(1, 1, e, 0), {}))


def test_out_of_range_witnesses_do_not_replay(named_maps):
    # indices outside the tables must not wrap around or raise: a witness
    # naming a degree, vertex position, horn, cell or component that does
    # not exist is made up, and replays False
    cover = sk.cyclic_cover_projection(2, 3)  # a covering and a Kan map
    A = cover.source
    probes = {
        "covering": [
            MissingLift(1, 0, 0, -1),
            MissingLift(1, 0, -1, 0),
            MissingLift(1, 0, 0, A.cells[0]),
            MissingLift(1, 2, 0, 0),
            MissingLift(-3, 0, 0, 0),
            MissingLift(9, 0, 0, 0),
            AmbiguousLift(9, 0, 0, 0, 0, 1),
        ],
        "kan": [
            MissingHornFiller(1, 0, 0, ((1, -1),)),
            MissingHornFiller(1, 0, -1, ((1, 0),)),
            MissingHornFiller(1, 0, 0, ((1, A.cells[0]),)),
            MissingHornFiller(1, 2, 0, ((0, 0), (1, 0))),
            MissingHornFiller(0, 0, 0, ()),
            MissingHornFiller(9, 0, 0, ((1, 0),)),
            MissingHornFiller(2, 0, 0, ((2, 0), (1, 0))),
        ],
        "separable-lifting": [AmbiguousLift(1, 0, 0, 0, -1, 1), AmbiguousLift(1, 3, 0, 0, 0, 1)],
        "trivial-covering": [
            ComparisonClash(9, 0, 1),
            ComparisonClash(-1, 0, 1),
            ComparisonMiss(9, 0, 0),
            ComparisonMiss(0, -1, 0),
        ],
        "injection-cartesian": [ComponentLeak(0, -1, 0), ComponentLeak(0, 0, -1)],
    }
    for check, witnesses in probes.items():
        for w in witnesses:
            assert revalidate_witness(cover, CheckReport(check, False, w, {})) is False, w
    # genuine witnesses replay, and shifting an index by minus the cell count
    # (the same cell, read from the end) does not
    collapse = named_maps["curated:interval-to-point"]
    for h, report in (
        (collapse, separable_via_lifting(collapse)),
        (collapse, covering_check(collapse)),
        (cover, sk.trivial_covering_check(cover)),
    ):
        assert revalidate_witness(h, report), report.check
        w = report.witness
        shifted = replace(w, second=w.second - h.source.cells[w.degree])
        assert not revalidate_witness(h, replace(report, witness=shifted)), w


def test_separability_agreement_reports(named_maps):
    for name, h in named_maps.items():
        agreement = separability_agreement(h)
        assert agreement.agree, name
        doc = agreement.to_doc()
        assert doc["equivalence"] == "separability"
        assert doc["agree"] is True


def test_covering_agreement_reports(named_maps):
    out = covering_agreement(named_maps["curated:interval-to-point"])
    assert out.out_of_hypothesis
    assert out.agree is None and out.ambiguous_only is None
    assert "agree" not in out.to_doc()

    out = covering_agreement(named_maps["curated:circle-nerve-projection"])
    assert not out.out_of_hypothesis
    assert out.agree is True
    assert out.ambiguous_only is True
    assert out.to_doc()["ambiguous_only"] is True

    out = covering_agreement(named_maps["curated:cyclic-double-cover"])
    assert out.agree is True and out.direct.verdict and out.covering.verdict


def test_kan_failures_of_coverings_never_missing(named_maps):
    # on Kan maps a failed covering check is always an ambiguity
    for label, h in _valid_generated(seed=41, count=40):
        if not kan_check(h).verdict:
            continue
        report = covering_check(h)
        assert report.stats["missing"] == 0, label
        if not report.verdict:
            assert isinstance(report.witness, AmbiguousLift), label


def test_implication_chain(named_maps):
    cases = list(named_maps.values()) + [h for _, h in _valid_generated(43, 50)]
    for h in cases:
        trivial = sk.trivial_covering_check(h).verdict
        cov = covering_check(h).verdict
        kan = kan_check(h).verdict
        sep = separable_direct(h).verdict
        if trivial:
            assert cov
        if cov:
            assert kan and sep


def test_verdicts_invariant_under_degeneracy_closure(named_maps):
    # square-type checks are invariant over the whole extended range; the
    # kan verdict is a statement about the stored range, so it is compared
    # at the original bound
    cases = list(named_maps.items()) + _valid_generated(seed=47, count=40)
    for name, h in cases:
        old = h.source.truncation
        ext = orc.extend_map(h, old + 1)
        assert separable_direct(ext).verdict == separable_direct(h).verdict, name
        assert (
            separable_via_lifting(ext).verdict == separable_via_lifting(h).verdict
        ), name
        assert covering_check(ext).verdict == covering_check(h).verdict, name
        assert (
            sk.trivial_covering_check(ext).verdict
            == sk.trivial_covering_check(h).verdict
        ), name
        assert kan_check(ext, bound=old).verdict == kan_check(h).verdict, name
        assert (
            injection_cartesian_check(diagonal(ext).delta).verdict
            == injection_cartesian_check(diagonal(h).delta).verdict
        ), name


def test_kan_verdict_is_about_the_stored_range(named_maps):
    # a closure extension can genuinely fail new horns at the added degree:
    # the horn below uses only old cells but its filler in the full product
    # would be a nondegenerate shuffle cell the closure does not contain
    h = dict(sk.curated_instances(2))["curated:circle-nerve-projection"]
    assert kan_check(h).verdict
    ext = orc.extend_map(h, 3)
    report = kan_check(ext)
    assert not report.verdict
    assert report.witness.degree == 3
    assert revalidate_witness(ext, report)
    # the genuine depth-3 product does fill them
    full = dict(sk.curated_instances(3))["curated:circle-nerve-projection"]
    assert kan_check(full).verdict


def test_check_report_docs(named_maps):
    report = covering_check(named_maps["vertex-into-interval"])
    doc = report.to_doc()
    assert doc["check"] == "covering"
    assert doc["verdict"] is False
    assert doc["witness"]["kind"] == "missing_lift"
    assert doc["stats"]["missing"] >= 1
    assert bool(report) is False
    assert bool(covering_check(named_maps["curated:fold-interval"])) is True


def _one_report_per_witness_kind(named_maps, zoo):
    """Golden name -> (map, the failing report of one check on it), one per witness kind."""
    collapse = named_maps["curated:interval-to-point"]
    end = sk.point_inclusion(collapse.source, 0)
    pair = sk.copair(end, end)
    vertex = named_maps["vertex-into-interval"]
    leaking = sk.point_inclusion(zoo["interval"], 0)
    cover = named_maps["curated:cyclic-double-cover"]
    return {
        "ambiguous-lift": (collapse, separable_via_lifting(collapse)),
        "missing-lift": (vertex, covering_check(vertex)),
        "missing-horn": (collapse, kan_check(collapse)),
        "component-leak": (leaking, injection_cartesian_check(leaking)),
        "comparison-miss": (pair, sk.trivial_covering_check(pair)),
        "comparison-clash": (cover, sk.trivial_covering_check(cover)),
    }


def test_witness_document_goldens(named_maps, zoo):
    # one report per witness kind: the canonical document matches its
    # golden file, and the witness keys come as kind, then the fields
    keys = {
        "ambiguous-lift": ["kind", "degree", "vertex", "base", "anchor", "first", "second"],
        "missing-lift": ["kind", "degree", "vertex", "base", "anchor"],
        "missing-horn": ["kind", "degree", "horn", "base", "faces"],
        "component-leak": ["kind", "component", "degree", "cell"],
        "comparison-miss": ["kind", "degree", "target_cell", "component"],
        "comparison-clash": ["kind", "degree", "first", "second"],
    }
    kinds = set()
    for name, (_, report) in _one_report_per_witness_kind(named_maps, zoo).items():
        doc = report.to_doc()
        assert dumps_canonical(doc) == (GOLDEN / f"report-{name}.json").read_text(), name
        assert list(doc) == ["check", "verdict", "stats", "witness"], name
        assert list(doc["witness"]) == keys[name], name
        kinds.add(doc["witness"]["kind"])
    assert len(kinds) == 6


def test_each_check_replays_only_the_witness_kinds_it_reports(named_maps, zoo):
    # check -> the witness kinds it reports, written out apart from the
    # replay table.  Each genuine witness is replayed under all six checks:
    # it replays True under its own check, and an AmbiguousLift under
    # covering too; it replays False under a check that never reports its
    # kind.  The one other pair, the component leak under separable-direct,
    # replays False: the diagonal of the injective map it leaks from is onto
    # its fiber product, so nothing leaks there.
    reports = {
        "separable-direct": {ComponentLeak},
        "injection-cartesian": {ComponentLeak},
        "trivial-covering": {ComparisonClash, ComparisonMiss},
        "covering": {MissingLift, AmbiguousLift},
        "separable-lifting": {AmbiguousLift},
        "kan": {MissingHornFiller},
    }
    for h, report in _one_report_per_witness_kind(named_maps, zoo).values():
        w = report.witness
        assert type(w) in reports[report.check]
        for check, kinds in reports.items():
            genuine = type(w) in kinds and check in (report.check, "covering")
            assert revalidate_witness(h, CheckReport(check, False, w, {})) is genuine, (check, w)


def test_empty_source_is_separable_everywhere(zoo):
    h = sk.terminal_map(sk.empty_sset(3))
    assert separable_direct(h).verdict
    assert separable_via_lifting(h).verdict
    assert covering_check(h).verdict  # no vertices downstairs to anchor
    assert kan_check(h).verdict


def _horn_inclusion(n, k, truncation):
    """Lambda^n_k -> Delta^n; both keep their cells as monotone tuples in lex order."""
    H = build_standard(parse_spec(f"horn:{n}:{k}"), truncation)
    S = build_standard(parse_spec(f"simplex:{n}"), truncation)
    level = []
    for m in range(truncation + 1):
        tuples = monotone_maps(m, n)
        at = {t: c for c, t in enumerate(tuples)}
        level.append([at[t] for t in tuples if len(set(t) | {k}) < n + 1])
    return SimplicialMap(H, S, level)


def test_kan_check_matches_reference(differential_maps):
    cover = build_standard(parse_spec("cyclic-cover:8"), 3)
    fold = fold_map(build_standard(parse_spec("simplex:3"), 4))
    triangle = build_standard(parse_spec("simplex:2"), 3)
    # the base edge 0 -> 2 has an empty fiber, in slot 0 (k = 0) and in a
    # later slot (k = 2); an empty source makes every |A_{n-2}| zero; the
    # gluing, pinned from `ssetkit gen map --seed 2 --max-dim 3 --trial 42`,
    # has degree-4 families that only the test between slots 2 and 3 rejects
    gluing = map_from_doc(load_json(GOLDEN / "gen-map-seed2-dim3-trial42.json"))
    edge_cases = [
        ("horn:2:1-into-simplex:2", _horn_inclusion(2, 1, 3)),
        ("empty-into-simplex:2", SimplicialMap(sk.empty_sset(3), triangle, [[]] * 4)),
        ("gluing:dim-3:seed-2:trial-42", gluing),
    ]
    for _, h in edge_cases:
        assert validate_map(h).ok
    maps = differential_maps + [
        ("terminal:cyclic-cover:8", terminal_map(cover)),
        ("cyclic-cover-projection:16", sk.cyclic_cover_projection(16, 3)),
        ("relabelled:fold:simplex:3", orc.relabel(fold, random.Random(3))),
        *orc.ladder_maps().items(),
        *edge_cases,
    ]
    negative = 0
    for name, h in maps:
        for bound in (None, 1, 2):
            want = orc.naive_kan(h, bound)
            assert kan_check(h, bound).to_doc() == want.to_doc(), (name, bound)
            negative += not want.verdict
    assert negative >= 30


def test_lift_checks_match_reference(differential_maps):
    negative = 0
    for name, h in differential_maps:
        want = orc.naive_covering(h)
        assert covering_check(h).to_doc() == want.to_doc(), name
        negative += not want.verdict
        want = orc.naive_separable_lifting(h)
        assert separable_via_lifting(h).to_doc() == want.to_doc(), name
        negative += not want.verdict
    assert negative >= 30


def test_separable_direct_matches_oracle(differential_maps):
    negative = 0
    for name, h in differential_maps:
        if name.startswith("diagonal:"):
            continue
        want = orc.naive_injection_cartesian(diagonal(h).delta).to_doc()
        want["check"] = "separable-direct"
        assert separable_direct(h).to_doc() == want, name
        negative += not want["verdict"]
    assert negative >= 30


def test_anchor_positions_decide_the_lift_checks(differential_maps):
    # squares at j = 0 in every degree and j = 1 in degree 1 decide covering
    # and separable-lifting at every (n, j)
    maps = [h for _, h in differential_maps] + list(orc.ladder_maps().values())
    for seed in (0, 1):
        for t in range(150):
            _, h = gen_morphism(GenConfig(seed=seed), t)
            if validate_parts(h)[1].ok:
                maps.append(h)
    seen = set()
    for h in maps:
        covering, separable = orc.anchored_lift_verdicts(h)
        assert covering == covering_check(h).verdict
        assert separable == separable_via_lifting(h).verdict
        seen |= {("covering", covering), ("separable", separable)}
    assert len(seen) == 4
