"""Fiber products, products, diagonals, and the universal property."""

import copy
import itertools
import json
import pickle
from collections import Counter

import pytest

import oracles as orc
import ssetkit as sk
from ssetkit.checks import revalidate_witness
from ssetkit.components import pi0
from ssetkit.core import TruncatedSSet, validate
from ssetkit.groupoids import cyclic_group_groupoid, nerve
from ssetkit.harness import _witness_audit, evaluate_instance
from ssetkit.io import dumps_canonical, map_from_doc, map_to_doc
from ssetkit.limits import diagonal, product, pullback
from ssetkit.maps import (
    SimplicialMap,
    compose,
    identity_map,
    point_inclusion,
    terminal_map,
    validate_map,
)
from ssetkit.standard import (
    build_standard,
    circle_spec,
    cyclic_cover_spec,
    parse_spec,
    simplex_spec,
)


def _cospans():
    """Small cospans, every object within six cells per degree."""
    n = 2
    interval = build_standard(simplex_spec(1), n)
    circle = build_standard(circle_spec(), n)
    point = build_standard(simplex_spec(0), n)
    cover = sk.cyclic_cover_projection(2, n)
    return {
        "product": (terminal_map(interval), terminal_map(circle)),
        "two-vertices": (point_inclusion(interval, 0), point_inclusion(interval, 1)),
        "deck": (cover, sk.cyclic_cover_projection(2, n)),
        "identity-side": (terminal_map(circle), identity_map(point)),
    }


def _test_objects():
    n = 2
    return {
        "empty": sk.empty_sset(n),
        "point": build_standard(simplex_spec(0), n),
        "interval": build_standard(simplex_spec(1), n),
        "circle": build_standard(circle_spec(), n),
    }


def test_fiber_product_structure(named_maps):
    h = named_maps["curated:cyclic-double-cover"]
    fp = pullback(h, h)
    P = fp.object
    assert validate(P).ok
    assert validate_map(fp.pr1).ok and validate_map(fp.pr2).ok
    # commutation with the cospan legs
    assert compose(h, fp.pr1).level == compose(h, fp.pr2).level
    # cells are the matching pairs, in lexicographic order
    for n in range(P.truncation + 1):
        want = [
            (x1, x2)
            for x1 in range(h.source.cells[n])
            for x2 in range(h.source.cells[n])
            if h.level[n][x1] == h.level[n][x2]
        ]
        assert orc.fiber_pairs(fp)[n] == want
        assert [orc.fiber_index(fp)[n][p] for p in want] == list(range(len(want)))
        # projections read off the pair coordinates
        for p, (x1, x2) in enumerate(want):
            assert fp.pr1.level[n][p] == x1
            assert fp.pr2.level[n][p] == x2


def test_fiber_product_acts_componentwise(named_maps):
    h = named_maps["curated:circle-nerve-projection"]
    fp = pullback(h, h)
    P, A = fp.object, h.source
    pairs = orc.fiber_pairs(fp)
    for n in range(1, P.truncation + 1):
        for p, (x1, x2) in enumerate(pairs[n]):
            for i in range(n + 1):
                assert pairs[n - 1][P.face[n][i][p]] == (
                    A.face[n][i][x1],
                    A.face[n][i][x2],
                )
    for n in range(P.truncation):
        for p, (x1, x2) in enumerate(pairs[n]):
            for i in range(n + 1):
                assert pairs[n + 1][P.degeneracy[n][i][p]] == (
                    A.degeneracy[n][i][x1],
                    A.degeneracy[n][i][x2],
                )


def test_pullback_requires_shared_target(zoo):
    with pytest.raises(ValueError):
        pullback(terminal_map(zoo["interval"]), identity_map(zoo["interval"]))


def test_product_is_pullback_over_terminal(zoo):
    X, Y = zoo["interval"], zoo["circle"]
    prod = product(X, Y)
    via_pb = pullback(terminal_map(X), terminal_map(Y))
    assert prod.object.cells == via_pb.object.cells == [
        a * b for a, b in zip(X.cells, Y.cells)
    ]
    assert orc.fiber_pairs(prod) == orc.fiber_pairs(via_pb)
    assert validate(prod.object).ok


def test_product_requires_equal_truncations(zoo):
    with pytest.raises(ValueError, match="truncation mismatch in product"):
        product(zoo["interval"], sk.discrete_sset(1, 2))


def test_fiber_product_cells_are_counted_before_building(monkeypatch, named_maps):
    # the pairs are counted from the fibers: the fiber product builds at
    # exactly the budget and is refused one cell under it
    cospans = list(_cospans().values()) + [(h, h) for h in named_maps.values()]
    built = [(f, g, sum(pullback(f, g).object.cells)) for f, g in cospans]
    for f, g, cells in built:
        monkeypatch.setattr(sk.core, "CELL_BUDGET", cells)
        assert sum(pullback(f, g).object.cells) == cells
        monkeypatch.setattr(sk.core, "CELL_BUDGET", cells - 1)
        with pytest.raises(ValueError, match=f"fiber product: more than {cells - 1} cells"):
            pullback(f, g)


def test_two_vertex_pullback_is_empty():
    f, g = _cospans()["two-vertices"]
    fp = pullback(f, g)
    assert fp.object.cells == [0, 0, 0]


def test_universal_property_exhaustive():
    zs = _test_objects()
    for cname, (f, g) in _cospans().items():
        fp = pullback(f, g)
        for zname, Z in zs.items():
            assert orc.universal_property_holds(f, g, fp, Z), (cname, zname)


def test_diagonal(named_maps):
    for name, h in named_maps.items():
        dd = diagonal(h)
        fp = dd.fiber_product
        index = orc.fiber_index(fp)
        assert validate_map(dd.delta).ok, name
        assert compose(fp.pr1, dd.delta).level == identity_map(h.source).level
        assert compose(fp.pr2, dd.delta).level == identity_map(h.source).level
        for n in range(h.source.truncation + 1):
            want = {index[n][(x, x)] for x in range(h.source.cells[n])}
            assert set(dd.image[n]) == want
            assert len(dd.image[n]) == h.source.cells[n]
        assert dd.image is dd.delta.level, name


def test_diagonal_is_injective(named_maps):
    for h in named_maps.values():
        dd = diagonal(h)
        for row in dd.delta.level:
            assert len(set(row)) == len(row)


def test_empty_source_pullback(zoo):
    f = terminal_map(sk.empty_sset(3))
    g = terminal_map(zoo["circle"])
    fp = pullback(f, g)
    assert fp.object.cells == [0, 0, 0, 0]
    assert orc.universal_property_holds(
        f, g, fp, sk.empty_sset(3)
    )


def test_pullback_matches_reference(zoo, differential_maps):
    cospans = [(name, m, m) for name, m in differential_maps]
    cospans += [
        (f"product:{a}x{b}", terminal_map(X), terminal_map(Y))
        for (a, X), (b, Y) in itertools.product(zoo.items(), repeat=2)
    ]
    for name, f, g in cospans:
        P, pairs, index, pr1, pr2 = orc.reference_pullback(f, g)
        fp = pullback(f, g)
        assert fp.object == P, name
        assert orc.fiber_pairs(fp) == pairs and orc.fiber_index(fp) == index, name
        assert fp.pr1 == pr1 and fp.pr2 == pr2, name
    for name, h in differential_maps:
        dd = diagonal(h)
        level = orc.reference_diagonal_level(h)
        assert dd.delta.level == level, name
        assert dd.image == [sorted(set(row)) for row in level], name


def test_pullback_tables_share_cell_ints():
    # one int object per cell, however many table entries name it
    P = diagonal(sk.cyclic_cover_projection(24, 3)).fiber_product.object
    for m in range(P.truncation + 1):
        rows = P.face[m + 1] if m < P.truncation else []
        rows = rows + (P.degeneracy[m - 1] if m else [])
        first: dict[int, int] = {}
        for row in rows:
            for v in row:
                assert first.setdefault(v, v) is v, (m, v)
        assert any(v > 256 for v in first), m


def _tables_built(P) -> bool:
    # whether any degree of a fiber product's face or degeneracy table is built
    return bool(P.face._built or P.degeneracy._built)


def _level_built(pr) -> bool:
    # whether any degree of a projection's level is built
    return bool(pr.level._built)


def _reference_cospans(zoo, differential_maps):
    """(name, f, g): every corpus map against itself, and every zoo product."""
    cospans = [(name, m, m) for name, m in differential_maps]
    return cospans + [
        (f"product:{a}x{b}", terminal_map(X), terminal_map(Y))
        for (a, X), (b, Y) in itertools.product(zoo.items(), repeat=2)
    ]


def test_scoring_builds_no_fiber_product_tables(differential_maps):
    circle = build_standard(circle_spec(), 3)
    large = [
        ("cyclic-cover-16", sk.cyclic_cover_projection(16, 3)),
        ("terminal:cyclic-cover:8", terminal_map(build_standard(parse_spec("cyclic-cover:8"), 3))),
        ("circle-x-nerve-z3", product(circle, nerve(cyclic_group_groupoid(3), 3)).pr1),
    ]
    for name, h in list(differential_maps) + large:
        dd = diagonal(h)
        v = evaluate_instance(h, dd)
        assert _witness_audit(h, v, dd) == [], name
        assert revalidate_witness(h, v.direct), name
        fp = dd.fiber_product
        assert not _tables_built(fp.object), name
        # nor any projection level: pi0 reads the degree-0 pairs only
        assert not _level_built(fp.pr1) and not _level_built(fp.pr2), name
        if v.direct.verdict:
            # a separable map's diagonal is decided by counts: no class row is built
            assert v.trivial_delta.verdict, name
            assert _rows_built(pi0(fp.object)) == [], name
        if name == "cyclic-cover-16":
            assert v.direct.verdict, name


def test_fiber_product_is_plain_objects(named_maps):
    fp = pullback(*_cospans()["deck"])
    P = fp.object
    # plain classes, before any read
    assert type(P) is TruncatedSSet, type(P)
    assert type(fp.pr1) is SimplicialMap and type(fp.pr2) is SimplicialMap
    assert not _tables_built(P)
    assert not _level_built(fp.pr1) and not _level_built(fp.pr2)
    # reading one degree of face builds that degree only
    P.face[2]
    assert sorted(P.face._built) == [2] and not P.degeneracy._built
    h = named_maps["curated:cyclic-double-cover"]
    want = orc.reference_pullback(h, h)
    for copier in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        fresh = pullback(h, h)
        c = copier(fresh)
        # the copy carries plain lists, and still shares one object between its parts
        assert type(c.object.face) is list and type(c.object.degeneracy) is list
        assert type(c.pr1.level) is list and type(c.pr2.level) is list
        assert c.pr1.source is c.object and c.pr2.source is c.object
        assert (c.object, c.pr1, c.pr2) == (want[0], want[3], want[4])
        assert fresh == c and c == fresh


def test_lazy_fiber_product_matches_reference(zoo, differential_maps):
    for name, f, g in _reference_cospans(zoo, differential_maps):
        P = orc.reference_pullback(f, g)[0]
        first, second = pullback(f, g).object, pullback(f, g).object
        assert isinstance(first, TruncatedSSet), name
        # == before the first table read, in both orders
        assert not _tables_built(first) and first == P, name
        assert not _tables_built(second) and P == second, name
        # and after it
        assert _tables_built(first) and _tables_built(second), name
        assert first == P and P == first and second == P and P == second, name
        assert first == second, name
        if P.truncation and P.cells[1]:
            other = copy.deepcopy(P)
            other.face[1][0][0] = other.face[1][1][0] = other.cells[0]
            assert first != other and other != first, name
        for read in (False, True):
            obj = pullback(f, g).object
            if read:
                obj.degeneracy[-1:]
            copies = [copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]
            for c in copies:
                assert type(c) is TruncatedSSet and c == P and P == c, (name, read)
                assert vars(c).keys() == vars(P).keys(), (name, read)
        assert validate(pullback(f, g).object).ok, name


def test_lazy_projections_match_reference(zoo, differential_maps):
    for name, f, g in _reference_cospans(zoo, differential_maps):
        _, _, _, *want = orc.reference_pullback(f, g)
        got = pullback(f, g)
        for pr, ref in zip((got.pr1, got.pr2), want):
            assert type(pr) is SimplicialMap, name
            # == before the first level read, in both orders, and after it
            assert not _level_built(pr) and pr == ref, name
            assert len(pr.level._built) == len(pr.level) and ref == pr, name
        # with the reference on the left before the first read
        fresh = pullback(f, g)
        assert want[0] == fresh.pr1 and want[1] == fresh.pr2, name
        for read in (False, True):
            pr = pullback(f, g).pr2
            if read:
                pr.level[0]
            copies = [copy.copy(pr), copy.deepcopy(pr), pickle.loads(pickle.dumps(pr))]
            for c in copies:
                assert type(c) is SimplicialMap and c == want[1] and want[1] == c, (name, read)
                assert vars(c).keys() == vars(want[1]).keys(), (name, read)


def test_projection_round_trips_as_an_instance():
    circle = build_standard(circle_spec(), 3)
    h = product(circle, nerve(cyclic_group_groupoid(3), 3)).pr1
    back = map_from_doc(json.loads(dumps_canonical(map_to_doc(h))))
    assert type(back) is SimplicialMap and back == h and h == back
    assert evaluate_instance(back) == evaluate_instance(h)


def _rows_built(part) -> list[int]:
    # the degrees whose class_of row a fiber product's partition has built
    return sorted(part.class_of._built)


def test_pi0_of_fiber_product_from_pairs(zoo, differential_maps):
    cospans = _reference_cospans(zoo, differential_maps)
    cospans += [(f"ladder:{name}", h, h) for name, h in orc.ladder_maps().items()]
    for name, f, g in cospans:
        P = orc.reference_pullback(f, g)[0]
        obj = pullback(f, g).object
        part, want = pi0(obj), orc.reference_pi0(P)
        assert part.count == want.count, name
        assert part.vertex_class == want.vertex_class, name
        # sizes are counted per fiber: every component, every degree, no row read;
        # the odd components first, so that later requests use earlier counts
        counts = [Counter(row) for row in want.class_of]
        every = {c: [k[c] for k in counts] for c in range(want.count)}
        odd = part.sizes(range(1, part.count, 2))
        assert odd == {c: every[c] for c in range(1, want.count, 2)}, name
        assert part.sizes(range(part.count)) == every, name
        assert _rows_built(part) == [], name
        # each row is built on read, and gives every cell its class
        for n in reversed(range(P.truncation + 1)):
            row = part.class_of[n]
            assert [row[x] for x in range(P.cells[n])] == want.class_of[n], (name, n)
        assert len(part.class_of) == len(want.class_of), name
        assert part.class_of == want.class_of and want.class_of == part.class_of, name
        assert not _tables_built(obj), name


def test_fiber_product_partition_counts_each_component_once():
    h = sk.cyclic_cover_projection(3, 3)
    part = pi0(diagonal(h).fiber_product.object)
    assert part.count == 3
    want = orc.reference_pi0(orc.reference_pullback(h, h)[0])
    counts = [Counter(row) for row in want.class_of]
    every = {c: [k[c] for k in counts] for c in range(want.count)}
    requests, count_cells = [], part.count_cells

    def recorded(components):
        requests.append(list(components))
        return count_cells(components)

    part.count_cells = recorded
    assert part.sizes([0]) == {0: every[0]}
    assert part.sizes([0, 1]) == {0: every[0], 1: every[1]}
    assert part.sizes(range(part.count)) == every
    assert requests == [[0], [1], [2]]
