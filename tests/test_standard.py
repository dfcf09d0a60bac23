"""Standard objects: simplices, boundaries, horns, circles, cyclic covers."""

import math

import pytest

import oracles as orc
import ssetkit as sk
from ssetkit.core import validate
from ssetkit.standard import (
    StandardObjectSpec,
    boundary_spec,
    build_standard,
    circle_spec,
    compose_monotone,
    cyclic_cover_spec,
    delta_op,
    horn_spec,
    monotone_maps,
    parse_spec,
    sigma_op,
    simplex_spec,
    union_spec,
)


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
                left = compose_monotone(delta_op(j, p), delta_op(i, p - 1))
                right = compose_monotone(delta_op(i, p), delta_op(j - 1, p - 1))
                assert left == right
    for p in range(1, 4):
        for j in range(p):
            for i in range(j + 1):
                left = compose_monotone(sigma_op(j, p - 1), sigma_op(i, p))
                right = compose_monotone(sigma_op(i, p - 1), sigma_op(j + 1, p))
                assert left == right
    for p in range(4):
        for j in range(p + 1):
            assert compose_monotone(sigma_op(j, p), delta_op(j, p + 1)) == tuple(
                range(p + 1)
            )
            assert compose_monotone(sigma_op(j, p), delta_op(j + 1, p + 1)) == tuple(
                range(p + 1)
            )


def test_compose_monotone_is_function_composition():
    import numpy as np

    rng = np.random.default_rng(3)
    for _ in range(100):
        n, p, q = (int(rng.integers(0, 4)) for _ in range(3))
        fs = monotone_maps(p, n)
        gs = monotone_maps(q, p)
        f = fs[int(rng.integers(0, len(fs)))]
        g = gs[int(rng.integers(0, len(gs)))]
        assert compose_monotone(f, g) == orc.tuple_compose(f, g)


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


def test_union_spec(zoo):
    spec = union_spec(simplex_spec(1), circle_spec())
    X = build_standard(spec, 3)
    assert X.cells == [
        a + b for a, b in zip(zoo["interval"].cells, zoo["circle"].cells)
    ]
    assert sk.pi0(X).count == 2


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
