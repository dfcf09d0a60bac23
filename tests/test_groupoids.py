"""Groupoids, nerves, and fundamental-groupoid presentations."""

import pytest

import oracles as orc
import ssetkit as sk
from ssetkit.checks import kan_check
from ssetkit.core import validate
from ssetkit.groupoids import (
    FiniteGroupoid,
    codiscrete_groupoid,
    cyclic_group_groupoid,
    nerve,
    pi1_presentation,
)
from ssetkit.maps import terminal_map
from ssetkit.standard import build_standard, circle_spec


def test_groupoid_constructors_check_out():
    for G in (
        cyclic_group_groupoid(1),
        cyclic_group_groupoid(4),
        codiscrete_groupoid(3),
        orc.discrete_groupoid(2),
        orc.sum_groupoid(cyclic_group_groupoid(2), codiscrete_groupoid(2)),
    ):
        orc.check_groupoid(G)


def test_groupoid_constructors_need_an_object():
    with pytest.raises(ValueError, match="need k >= 1"):
        cyclic_group_groupoid(0)
    with pytest.raises(ValueError, match="need m >= 1"):
        codiscrete_groupoid(0)


def test_check_groupoid_rejects_broken_tables():
    G = cyclic_group_groupoid(3)
    bad = FiniteGroupoid(
        G.n_objects, list(G.source), list(G.target), dict(G.compose),
        list(G.identity), list(G.inverse),
    )
    bad.inverse[1] = 1  # 1 + 1 != 0 mod 3
    with pytest.raises(ValueError):
        orc.check_groupoid(bad)
    bad2 = FiniteGroupoid(
        G.n_objects, list(G.source), list(G.target), dict(G.compose),
        list(G.identity), list(G.inverse),
    )
    bad2.compose[(1, 1)] = 0
    with pytest.raises(ValueError):
        orc.check_groupoid(bad2)


def test_nerve_counts_match_string_oracle():
    for G in (
        cyclic_group_groupoid(2),
        cyclic_group_groupoid(3),
        codiscrete_groupoid(2),
        codiscrete_groupoid(3),
        orc.discrete_groupoid(3),
    ):
        X = nerve(G, 3)
        assert X.cells == orc.raw_nerve_counts(G.n_objects, G.source, G.target, 3)
        assert validate(X).ok


def test_nerve_cells_are_counted_before_building(monkeypatch):
    # the strings are counted first: the nerve builds at exactly the budget
    # and is refused one cell under it
    groupoids = (cyclic_group_groupoid(3), codiscrete_groupoid(3), orc.discrete_groupoid(2))
    built = [(G, N, sum(nerve(G, N).cells)) for G in groupoids for N in range(5)]
    for G, N, cells in built:
        monkeypatch.setattr(sk.core, "CELL_BUDGET", cells)
        assert sum(nerve(G, N).cells) == cells
        monkeypatch.setattr(sk.core, "CELL_BUDGET", cells - 1)
        with pytest.raises(ValueError, match=f"nerve at truncation {N}: more than {cells - 1} "):
            nerve(G, N)


def test_nerve_rejects_negative_truncation():
    with pytest.raises(ValueError, match="truncation must be >= 0"):
        nerve(cyclic_group_groupoid(2), -1)
    assert validate(nerve(cyclic_group_groupoid(2), 0)).ok


def test_nerve_known_counts(zoo):
    assert zoo["nerve-z2"].cells == [1, 2, 4, 8]
    assert zoo["codiscrete2"].cells == [2, 4, 8, 16]
    assert nerve(orc.discrete_groupoid(3), 2).cells == [3, 3, 3]


def test_nerve_of_discrete_is_discrete():
    X = nerve(orc.discrete_groupoid(4), 2)
    assert X.cells == sk.discrete_sset(4, 2).cells
    assert X.nondegenerate_dim == 0


def test_nerve_segal_at_two(zoo):
    # 2-cells correspond bijectively to composable edge pairs via (d_2, d_0)
    for name in ("nerve-z2", "codiscrete2"):
        X = zoo[name]
        seen = {}
        for t in range(X.cells[2]):
            pair = (X.face[2][2][t], X.face[2][0][t])
            assert X.face[1][1][pair[1]] == X.face[1][0][pair[0]]
            assert pair not in seen
            seen[pair] = t
        composable = {
            (e1, e2)
            for e1 in range(X.cells[1])
            for e2 in range(X.cells[1])
            if X.face[1][0][e1] == X.face[1][1][e2]
        }
        assert set(seen) == composable


def test_nerve_inner_face_composes():
    # for Z/3 the edge cells are 0 = s_0(v), 1 = arrow 1, 2 = arrow 2, so
    # the inner face of a 2-cell must realize addition mod 3
    G = cyclic_group_groupoid(3)
    X = nerve(G, 3)
    assert X.cells[1] == 3
    v = 0
    assert X.degeneracy[0][0][v] == 0
    nondeg2 = [t for t, nondeg in enumerate(X.nondegenerate(2)) if nondeg]
    assert len(nondeg2) == 4  # identity-free pairs from arrows {1, 2}
    for t in nondeg2:
        g1 = X.face[2][2][t]
        g2 = X.face[2][0][t]
        assert X.face[2][1][t] == (g1 + g2) % 3


def test_groupoid_nerves_are_kan(zoo):
    for name in ("nerve-z2", "codiscrete2"):
        assert kan_check(terminal_map(zoo[name])).verdict, name
    # a non-fibrant comparison for contrast
    assert not kan_check(terminal_map(zoo["interval"])).verdict


def test_pi1_presentation_circle():
    circle = build_standard(circle_spec(), 2)
    pres = pi1_presentation(circle)
    assert pres.n_objects == 1
    # generators: the degenerate edge and the loop
    assert len(pres.generator_source) == 2
    assert pres.identity_relations == [(0, 0)]
    assert len(pres.triangle_relations) == circle.cells[2]
    text = pres.format_text()
    assert "a0 = id_0" in text
    assert "a1 : 0 -> 0" in text


def test_pi1_presentation_encodes_group_law(zoo):
    # in the nerve of Z/2 some triangle witnesses a . a = identity edge
    X = zoo["nerve-z2"]
    pres = pi1_presentation(X)
    ids = {g for _, g in pres.identity_relations}
    nondeg_edges = [e for e, nondeg in enumerate(X.nondegenerate(1)) if nondeg]
    assert len(nondeg_edges) == 1
    a = nondeg_edges[0]
    squared = [
        (left, second, first)
        for _, left, second, first in pres.triangle_relations
        if first == a and second == a
    ]
    assert squared and all(left in ids for left, _, _ in squared)


def test_pi1_requires_two_truncation(zoo):
    with pytest.raises(ValueError):
        pi1_presentation(sk.discrete_sset(2, 1))


def test_pi1_to_doc_round_trip(zoo):
    doc = pi1_presentation(zoo["circle"]).to_doc()
    assert doc["objects"] == 1
    assert all(len(g) == 2 for g in doc["generators"])
    assert all(len(r) == 2 for r in doc["identity_relations"])
    assert all(len(r) == 4 for r in doc["triangle_relations"])
