"""Standard objects: simplices, boundaries, horns, circles, cyclic covers."""

import math

import pytest

import oracles as orc
from oracles import delta_op, sigma_op
import ssetkit as sk
from ssetkit.core import validate
from ssetkit.standard import (
    StandardObjectSpec,
    boundary_spec,
    build_standard,
    circle_spec,
    cyclic_cover_spec,
    horn_spec,
    monotone_maps,
    parse_spec,
    simplex_spec,
    union_spec,
)
from ssetkit.standard import _cells


def test_monotone_maps_match_recursion():
    for m in range(5):
        for n in range(5):
            got = monotone_maps(m, n)
            assert got == orc.ordinal_maps(m, n)
            assert len(got) == math.comb(n + m + 1, n)


def test_simplex_counts():
    for n in range(5):
        X = build_standard(simplex_spec(n), n + 1)
        for m in range(n + 2):
            assert X.cells[m] == math.comb(n + m + 1, n)


def test_cosimplicial_identities():
    # delta_j . delta_i = delta_i . delta_{j-1} for i < j, and the
    # sigma/delta interchange, all as tuple compositions
    for p in range(1, 5):
        for j in range(p + 1):
            for i in range(j):
                left = orc.tuple_compose(delta_op(j, p), delta_op(i, p - 1))
                right = orc.tuple_compose(delta_op(i, p), delta_op(j - 1, p - 1))
                assert left == right
    for p in range(1, 4):
        for j in range(p):
            for i in range(j + 1):
                left = orc.tuple_compose(sigma_op(j, p - 1), sigma_op(i, p))
                right = orc.tuple_compose(sigma_op(i, p - 1), sigma_op(j + 1, p))
                assert left == right
    for p in range(4):
        for j in range(p + 1):
            assert orc.tuple_compose(sigma_op(j, p), delta_op(j, p + 1)) == tuple(
                range(p + 1)
            )
            assert orc.tuple_compose(sigma_op(j, p), delta_op(j + 1, p + 1)) == tuple(
                range(p + 1)
            )


def test_boundary_counts():
    # non-surjective monotone tuples only
    for n in range(1, 4):
        X = build_standard(boundary_spec(n), 3 if n < 3 else 4)
        for m in range(X.truncation + 1):
            want = sum(
                1 for t in orc.ordinal_maps(m, n) if set(t) != set(range(n + 1))
            )
            assert X.cells[m] == want
        assert validate(X).ok


def test_horn_counts():
    for n in range(1, 4):
        for k in range(n + 1):
            X = build_standard(horn_spec(n, k), 3 if n < 3 else 4)
            for m in range(X.truncation + 1):
                want = sum(
                    1
                    for t in orc.ordinal_maps(m, n)
                    if set(t) | {k} != set(range(n + 1))
                )
                assert X.cells[m] == want
            assert validate(X).ok


def test_boundary_and_horn_nondegenerate_cells(zoo):
    assert [sum(zoo["boundary2"].nondegenerate(m)) for m in range(4)] == [3, 3, 0, 0]
    assert [sum(zoo["horn21"].nondegenerate(m)) for m in range(4)] == [3, 2, 0, 0]


def test_circle_and_cyclic_cover_counts(zoo):
    circle = zoo["circle"]
    assert circle.cells == [1, 2, 3, 4]
    for k in (1, 2, 3):
        C = build_standard(cyclic_cover_spec(k), 3)
        assert C.cells == [k * (m + 1) for m in range(4)]
        assert validate(C).ok
        assert sk.pi0(C).count == 1


def _cyclic_keys(k, N):
    # the keys (phi, d, c) of the m-cells of cyclic-cover:k, m = 0..N, in the
    # order _cyclic_object's docstring gives, by (d, c, phi): the vertices,
    # then each edge under the monotone surjections [m] -> [1], which in
    # lexicographic order have m, m - 1, ..., 1 zeros
    return [
        [((0,) * (m + 1), 0, c) for c in range(k)]
        + [((0,) * j + (1,) * (m + 1 - j), 1, c) for c in range(k) for j in range(m, 0, -1)]
        for m in range(N + 1)
    ]


def _keyed_level(top_keys, bottom_keys, k):
    # the level that sends (phi, d, c) to (phi, d, c mod k)
    index = [{key: x for x, key in enumerate(at_n)} for at_n in bottom_keys]
    return [
        [index[n][(phi, d, c % k)] for phi, d, c in at_n] for n, at_n in enumerate(top_keys)
    ]


def test_cyclic_covers_compose():
    # C_km -> C_k sends (phi, d, c) to (phi, d, c mod k): a covering whose
    # composite with the projection of C_k is the projection of C_km
    from ssetkit.checks import covering_check
    from ssetkit.maps import SimplicialMap, compose, validate_parts

    for k, m in ((1, 2), (2, 2), (3, 2), (2, 3)):
        top = build_standard(cyclic_cover_spec(k * m), 3)
        bottom = build_standard(cyclic_cover_spec(k), 3)
        level = _keyed_level(_cyclic_keys(k * m, 3), _cyclic_keys(k, 3), k)
        p = SimplicialMap(top, bottom, level)
        assert validate_parts(p)[1].ok
        assert covering_check(p).verdict
        assert compose(sk.cyclic_cover_projection(k, 3), p) == sk.cyclic_cover_projection(
            k * m, 3
        )


def test_cyclic_cover_level_is_the_keyed_level():
    for k in (1, 2, 3, 16):
        for N in (2, 3, 5):
            want = _keyed_level(_cyclic_keys(k, N), _cyclic_keys(1, N), 1)
            assert sk.cyclic_cover_projection(k, N).level == want, (k, N)


def test_union_spec(zoo):
    spec = union_spec(simplex_spec(1), circle_spec())
    X = build_standard(spec, 3)
    assert X.cells == [
        a + b for a, b in zip(zoo["interval"].cells, zoo["circle"].cells)
    ]
    assert sk.pi0(X).count == 2


def test_cell_counts_are_made_before_building(monkeypatch):
    # each degree's count equals the built object's; the total builds at
    # exactly the budget and is refused one cell under it
    specs = [parse_spec(f"simplex:{n}") for n in range(4)]
    specs += [parse_spec(f"boundary:{n}") for n in range(4)]
    specs += [parse_spec(f"horn:{n}:{k}") for n in range(1, 4) for k in range(n + 1)]
    specs += [parse_spec(f"cyclic-cover:{k}") for k in (1, 3)] + [circle_spec()]
    specs.append(union_spec(horn_spec(3, 1), circle_spec(), boundary_spec(2)))
    built = [
        (spec, N, build_standard(spec, N).cells)
        for spec in specs
        for N in range(spec.nondegenerate_dim() + 1, 5)
    ]
    for spec, N, cells in built:
        assert [_cells(spec, m) for m in range(N + 1)] == cells, (spec, N)
        monkeypatch.setattr(sk.core, "CELL_BUDGET", sum(cells))
        assert build_standard(spec, N).cells == cells
        monkeypatch.setattr(sk.core, "CELL_BUDGET", sum(cells) - 1)
        with pytest.raises(ValueError, match=f"at truncation {N}: more than {sum(cells) - 1} "):
            build_standard(spec, N)
    # cyclic_cover_projection checks its cover as build_standard does: 24 cells at N = 2
    monkeypatch.setattr(sk.core, "CELL_BUDGET", 23)
    with pytest.raises(ValueError, match="cyclic-cover at truncation 2: more than 23 cells"):
        sk.cyclic_cover_projection(4, 2)


def test_truncation_too_small_is_rejected():
    with pytest.raises(ValueError):
        build_standard(simplex_spec(2), 2)
    with pytest.raises(ValueError):
        build_standard(circle_spec(), 1)
    # boundaries stop one degree lower, so this one fits
    assert validate(build_standard(boundary_spec(2), 2)).ok


def test_parse_spec_round_trip():
    for text, kind, params in (
        ("simplex:2", "simplex", (2,)),
        ("boundary:3", "boundary", (3,)),
        ("horn:2:1", "horn", (2, 1)),
        ("circle", "circle", ()),
        ("cyclic-cover:4", "cyclic-cover", (4,)),
    ):
        spec = parse_spec(text)
        assert (spec.kind, spec.params) == (kind, params)
        build_standard(spec, 4)
    with pytest.raises(ValueError):
        parse_spec("moebius:2")
    with pytest.raises(ValueError):
        parse_spec("circle:1")


def test_spec_check_rejects_bad_parameters():
    for spec in (
        simplex_spec(-1),
        horn_spec(2, 3),
        cyclic_cover_spec(0),
        StandardObjectSpec("horn", (0, 0)),
    ):
        with pytest.raises(ValueError):
            build_standard(spec, 4)


def test_spec_check_rejects_an_empty_union_and_an_unknown_kind():
    with pytest.raises(ValueError, match="empty union spec"):
        union_spec().check()
    with pytest.raises(ValueError, match="unknown standard kind 'moebius'"):
        StandardObjectSpec("moebius").check()


def test_parse_spec_names_the_arity():
    for text, want in (
        ("simplex", "simplex takes 1 parameter"),
        ("boundary", "boundary takes 1 parameter"),
        ("horn:2", "horn takes 2 parameters"),
        ("simplex:2:3", "simplex takes 1 parameter"),
    ):
        with pytest.raises(ValueError, match=want):
            parse_spec(text)
    with pytest.raises(ValueError, match="circle takes no parameters"):
        StandardObjectSpec("circle", (1,)).check()


def _standard_documents():
    """Object and map documents of every standard kind, the campaign's
    groupoid nerves, and cyclic cover projections, in a fixed order."""
    from ssetkit.harness import _GROUPS
    from ssetkit.io import map_to_doc, object_to_doc

    specs = [simplex_spec(n) for n in range(5)]
    specs += [boundary_spec(n) for n in range(5)]
    specs += [horn_spec(n, k) for n in range(1, 5) for k in range(n + 1)]
    specs += [circle_spec(), union_spec(simplex_spec(1), circle_spec(), boundary_spec(2))]
    specs += [cyclic_cover_spec(k) for k in (1, 2, 3, 5)]
    for spec in specs:
        for N in range(spec.nondegenerate_dim() + 1, 6):
            yield object_to_doc(build_standard(spec, N))
    for group, n in _GROUPS:
        for N in range(4):
            yield object_to_doc(sk.nerve(group(n), N))
    for k in (1, 2, 5):
        for N in range(2, 5):
            yield map_to_doc(sk.cyclic_cover_projection(k, N))


# sha256 of the canonical documents above, in order
STANDARD_SHA256 = "5216e78f68ca8946fbab0dfdf66aef56be493dbf923328ee1e94f815830c5e84"


def test_standard_documents_are_unchanged():
    import hashlib

    from ssetkit.io import dumps_canonical

    digest = hashlib.sha256()
    count = 0
    for doc in _standard_documents():
        digest.update(dumps_canonical(doc).encode())
        count += 1
    assert count > 100
    assert digest.hexdigest() == STANDARD_SHA256


def _extra_documents():
    """Larger nerves, a nerve of a sum of groupoids, and larger cyclic
    covers with their projections, in a fixed order."""
    from ssetkit.groupoids import codiscrete_groupoid, cyclic_group_groupoid
    from ssetkit.io import map_to_doc, object_to_doc

    groups = [
        cyclic_group_groupoid(4),
        cyclic_group_groupoid(5),
        codiscrete_groupoid(3),
        orc.discrete_groupoid(3),
        orc.sum_groupoid(cyclic_group_groupoid(2), codiscrete_groupoid(2)),
    ]
    for G in groups:
        for N in range(5):
            yield object_to_doc(sk.nerve(G, N))
    for k in (16, 64):
        for N in (3, 4):
            yield object_to_doc(build_standard(cyclic_cover_spec(k), N))
        yield map_to_doc(sk.cyclic_cover_projection(k, 3))


# sha256 of the canonical documents above, in order, as the formal-skeleton
# builder made them
EXTRA_SHA256 = "e6670dbe6afc4f8d9af3373f64a7341688d1c9041398c6d22ca94ab12421e5f3"


def test_extra_documents_are_unchanged():
    import hashlib

    from ssetkit.io import dumps_canonical

    digest = hashlib.sha256()
    for doc in _extra_documents():
        digest.update(dumps_canonical(doc).encode())
    assert digest.hexdigest() == EXTRA_SHA256
