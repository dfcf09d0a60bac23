"""Connected components and the two component-comparison checks."""

import copy
import random

import pytest

import oracles as orc
import ssetkit as sk
from ssetkit.components import (
    injection_cartesian_check,
    pi0,
    pi0_map,
    trivial_covering_check,
)
from ssetkit.core import validate, vertex_table
from ssetkit.harness import GenConfig, gen_morphism, gen_sset
from ssetkit.limits import diagonal
from ssetkit.maps import classify, point_inclusion, validate_map
from ssetkit.report import ComparisonClash, ComparisonMiss, ComponentLeak
from ssetkit.standard import build_standard, simplex_spec


def test_pi0_matches_bfs(zoo):
    for name, X in zoo.items():
        part = pi0(X)
        comps = orc.bfs_components(X)
        assert part.count == len(comps), name
        for v in range(X.cells[0]):
            assert v in comps[part.vertex_class[v]]
        for n in range(X.truncation + 1):
            for x in range(X.cells[n]):
                assert part.class_of[n][x] == orc.component_of_cell(X, comps, n, x)


def test_pi0_matches_bfs_on_generated():
    cfg = GenConfig(seed=17, trials=0)
    for t in range(40):
        X = gen_sset(cfg, t)
        if not validate(X).ok:
            continue
        part = pi0(X)
        comps = orc.bfs_components(X)
        assert part.count == len(comps)
        for n in range(X.truncation + 1):
            for x in range(X.cells[n]):
                assert part.class_of[n][x] == orc.component_of_cell(X, comps, n, x)


def test_pi0_of_simplices_connected():
    for n in range(5):
        X = build_standard(simplex_spec(n), n + 1)
        assert pi0(X).count == 1


def test_component_numbering_by_least_vertex(zoo):
    U = sk.disjoint_union(zoo["two-points"], zoo["interval"])
    part = pi0(U)
    # vertices 0,1 are the discrete points, 2,3 span the interval
    assert part.vertex_class == [0, 1, 2, 2]


def test_component_unit_and_naturality(zoo, named_maps):
    for X in zoo.values():
        unit = orc.component_unit(X)
        assert validate_map(unit).ok
        assert validate(unit.target).ok
    for h in named_maps.values():
        pa, pb = pi0(h.source), pi0(h.target)
        p0 = pi0_map(h, pa, pb)
        for n in range(h.source.truncation + 1):
            for x in range(h.source.cells[n]):
                assert pb.class_of[n][h.level[n][x]] == p0[pa.class_of[n][x]]


def test_component_object_is_discrete(zoo):
    part = pi0(zoo["two-points"])
    K = orc.component_object(part, 3)
    assert K.cells == [2, 2, 2, 2]
    assert K.nondegenerate_dim == 0


def test_trivial_covering_verdicts(named_maps):
    want = {
        "curated:cyclic-double-cover": False,
        "curated:interval-to-point": False,
        "curated:fold-interval": True,
        "curated:circle-nerve-projection": False,
        "vertex-into-interval": False,
    }
    for name, expected in want.items():
        report = trivial_covering_check(named_maps[name])
        assert report.verdict == expected, name
        assert report.verdict == orc.naive_trivial_covering(named_maps[name]), name


def test_trivial_covering_witness_golden(named_maps):
    # the double cover folds two sheets onto one pullback cell
    report = trivial_covering_check(named_maps["curated:cyclic-double-cover"])
    w = report.witness
    assert isinstance(w, ComparisonClash)
    assert (w.degree, w.first, w.second) == (0, 0, 1)
    assert report.stats["clashes"] > 0
    # two points on one end of the interval: pairs (b, c) are missed in
    # lexicographic order, so the far end with the first point comes first
    end = point_inclusion(named_maps["curated:interval-to-point"].source, 0)
    report = trivial_covering_check(sk.copair(end, end))
    w = report.witness
    assert isinstance(w, ComparisonMiss)
    assert (w.degree, w.target_cell, w.component) == (0, 1, 0)
    assert report.stats["cells_pullback"] == 2 * sum(end.target.cells)


def test_trivial_covering_on_identity(zoo):
    for X in (zoo["interval"], zoo["circle"], zoo["nerve-z2"]):
        assert trivial_covering_check(sk.identity_map(X)).verdict


def test_trivial_covering_matches_oracle_on_generated():
    cfg = GenConfig(seed=23, trials=0)
    checked = 0
    for t in range(80):
        _, h = gen_morphism(cfg, t)
        if not (
            validate(h.source).ok and validate(h.target).ok and validate_map(h).ok
        ):
            continue
        checked += 1
        assert trivial_covering_check(h).verdict == orc.naive_trivial_covering(h)
    assert checked >= 40


def test_injection_cartesian_requires_injectivity(named_maps):
    with pytest.raises(ValueError):
        injection_cartesian_check(named_maps["curated:fold-interval"])


def test_injection_cartesian_golden(zoo):
    report = injection_cartesian_check(point_inclusion(zoo["interval"], 0))
    assert not report.verdict
    w = report.witness
    assert isinstance(w, ComponentLeak)
    assert (w.component, w.degree, w.cell) == (0, 0, 1)
    # inclusion into the second summand leaks inside component 1 only
    U = sk.disjoint_union(zoo["interval"], zoo["interval"])
    report = injection_cartesian_check(point_inclusion(U, 2))
    assert not report.verdict
    assert report.witness == ComponentLeak(1, 0, 3)
    # a component equal to its image passes even when others are untouched
    V = sk.disjoint_union(zoo["interval"], zoo["point"])
    assert injection_cartesian_check(point_inclusion(V, 2)).verdict
    # the least component wins, though component 1 leaks at a lower degree
    both_ends = sk.copair(point_inclusion(U, 0), point_inclusion(U, 1))
    report = injection_cartesian_check(sk.copair(both_ends, point_inclusion(U, 2)))
    w = report.witness
    assert (w.component, w.degree) == (0, 1) and report.stats["leaks"] > 2


def test_injection_cartesian_matches_oracle_on_diagonals():
    cfg = GenConfig(seed=29, trials=0)
    checked = 0
    for t in range(60):
        _, h = gen_morphism(cfg, t)
        if not (
            validate(h.source).ok and validate(h.target).ok and validate_map(h).ok
        ):
            continue
        checked += 1
        m = diagonal(h).delta
        report = injection_cartesian_check(m)
        verdict, first = orc.naive_injection_cartesian(m)
        assert report.verdict == verdict
        if not verdict:
            w = report.witness
            assert (w.component, w.degree, w.cell) == first
    assert checked >= 30


def test_pi0_map_composes(named_maps):
    h = named_maps["curated:cyclic-double-cover"]
    t = sk.terminal_map(h.target)
    left = pi0_map(sk.compose(t, h))
    step = [pi0_map(t)[c] for c in pi0_map(h)]
    assert left == step


def test_copies_never_carry_derived_tables(zoo):
    X = zoo["two-points"]
    part, verts = pi0(X), vertex_table(X)
    Y = copy.deepcopy(X)
    assert Y == X and repr(Y) == repr(X)
    Y.face[1][0][1] = 0  # the degenerate edge at vertex 1 now ends at vertex 0
    assert pi0(Y) == orc.reference_pi0(Y) and pi0(Y).count == 1
    assert vertex_table(Y) == orc.reference_vertex_table(Y) and vertex_table(Y)[1][1] == (1, 0)
    assert pi0(X) is part and part == orc.reference_pi0(X) and part.count == 2
    assert vertex_table(X) is verts and verts == orc.reference_vertex_table(X)


def test_component_checks_match_references(differential_maps):
    injective = 0
    for name, m in differential_maps:
        for X in (m.source, m.target):
            assert pi0(X) == orc.reference_pi0(X), name
        want = orc.reference_trivial_covering_check(m)
        assert trivial_covering_check(m).to_doc() == want.to_doc(), name
        if classify(m).injective:
            injective += 1
            want = orc.reference_injection_cartesian_check(m)
            assert injection_cartesian_check(m).to_doc() == want.to_doc(), name
        else:
            with pytest.raises(ValueError):
                injection_cartesian_check(m)
    assert injective >= 60


def test_pi0_matches_reference_on_tampered_objects(zoo):
    rng = random.Random(0)
    objects = list(zoo.values()) + [gen_sset(GenConfig(seed=13, trials=0), t) for t in range(20)]
    outcomes = {"raised": 0, "partition": 0}
    for _ in range(300):
        X = copy.deepcopy(rng.choice(objects))
        degrees = [n for n in range(1, X.truncation + 1) if X.cells[n] and X.cells[n - 1] >= 2]
        if not degrees:
            continue
        n = rng.choice(degrees)
        X.face[n][rng.randrange(n + 1)][rng.randrange(X.cells[n])] = rng.randrange(X.cells[n - 1])
        try:
            want = orc.reference_pi0(X)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                pi0(X)
            assert str(got.value) == str(exc)
            outcomes["raised"] += 1
        else:
            assert pi0(X) == want
            outcomes["partition"] += 1
    assert min(outcomes.values()) >= 10, outcomes
