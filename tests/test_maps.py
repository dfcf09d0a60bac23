"""Simplicial maps: validation, composition, classification, extension."""

import copy
import random

import pytest

import oracles as orc
import ssetkit as sk
from ssetkit.core import validate
from ssetkit.harness import GenConfig, gen_morphism
from ssetkit.maps import (
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
    validate_parts,
)
from ssetkit.standard import build_standard, circle_spec, simplex_spec


def test_named_maps_validate(named_maps):
    for name, h in named_maps.items():
        assert validate_map(h).ok, name


def test_validate_map_catches_broken_naturality(named_maps):
    h = named_maps["curated:fold-interval"]
    bad = SimplicialMap(h.source, h.target, [list(r) for r in h.level])
    bad.level[1][0] ^= 1
    assert not validate_map(bad).ok


def test_validate_map_catches_range_and_shape(zoo):
    X = zoo["interval"]
    too_short = SimplicialMap(X, X, [list(range(c)) for c in X.cells[:-1]])
    assert not validate_map(too_short).ok
    out_of_range = identity_map(X)
    bad = SimplicialMap(X, X, [list(r) for r in out_of_range.level])
    bad.level[0][0] = 99
    assert not validate_map(bad).ok


def _doc(failure):
    return None if failure is None else failure.to_doc()


@pytest.mark.parametrize("value", [7, -1])
def test_validate_map_reports_a_malformed_end(value):
    # an out-of-range face entry of an end is a shape failure naming that
    # end: 7 used to raise IndexError, and -1 wrapped around into a naturality failure
    X = build_standard(simplex_spec(1), 2)
    bad = copy.deepcopy(X)
    bad.face[1][0][0] = value
    level = identity_map(X).level
    for h, end in (
        (SimplicialMap(bad, bad, level), "source"),
        (SimplicialMap(X, bad, level), "target"),
    ):
        failure = validate_map(h).failure
        want = {"kind": "shape", "degree": 1, "end": end, "reason": "face out of range", "i": 0}
        assert failure.to_doc() == want, end
        assert _doc(orc.naive_map_failure(h)) == want, end


def _validate_parts_before(h):
    """validate_parts as it was: validate, validate, then validate_map in full."""
    for label, check, subject in (
        ("source", validate, h.source),
        ("target", validate, h.target),
        ("map", validate_map, h),
    ):
        rep = check(subject)
        if not rep.ok:
            break
    return label, _doc(rep.failure)


def _parts(h):
    label, rep = validate_parts(h)
    return label, _doc(rep.failure)


def test_validate_parts_matches_validate_map_on_malformed_maps(named_maps, zoo):
    fold = named_maps["curated:fold-interval"]
    broken = SimplicialMap(fold.source, fold.target, [list(r) for r in fold.level])
    broken.level[1][0] ^= 1
    X = zoo["interval"]
    out_of_range = identity_map(X)
    out_of_range.level[0][0] = 99
    Y = build_standard(simplex_spec(1), 2)
    cases = [
        broken,
        SimplicialMap(X, X, [list(range(c)) for c in X.cells[:-1]]),
        out_of_range,
        SimplicialMap(Y, X, [list(range(c)) for c in Y.cells]),
    ]
    for value in (7, -1):
        bad = copy.deepcopy(Y)
        bad.face[1][0][0] = value
        level = identity_map(Y).level
        cases += [SimplicialMap(bad, bad, level), SimplicialMap(Y, bad, level)]
    labels = set()
    for h in cases:
        assert _parts(h) == _validate_parts_before(h)
        labels.add(_parts(h)[0])
    assert labels == {"source", "target", "map"}


def test_validate_map_matches_oracle_on_every_single_entry_tamper(zoo):
    # level entries take every other value in -1..bound; each entry of the
    # source's tables, which naturality reads through, takes the next value
    tampers = failing = 0
    for name, X in zoo.items():
        for make in (identity_map, terminal_map, fold_map):
            h = make(X)
            h = SimplicialMap(copy.deepcopy(h.source), h.target, copy.deepcopy(h.level))
            entries = [
                (row, x, range(-1, h.target.cells[n] + 1))
                for n, row in enumerate(h.level)
                for x in range(len(row))
            ]
            entries += [
                (row, x, [(row[x] + 1) % b]) for row, x, b in orc.table_entries(h.source)
            ]
            for row, x, values in entries:
                keep = row[x]
                for v in values:
                    if v == keep:
                        continue
                    row[x] = v
                    want = orc.naive_map_failure(h)
                    assert _doc(validate_map(h).failure) == _doc(want), (name, x, v)
                    tampers += 1
                    failing += want is not None
                row[x] = keep
    assert tampers > 3000 and failing > 2000


def test_validators_match_oracles_on_tampered_draws():
    # generator draws, the corrupted family included, as drawn and then
    # with one random in-range entry of a table changed, twice over
    families, kinds = set(), set()
    for seed in range(5):
        rng = random.Random(seed)
        cfg = GenConfig(seed=seed, trials=0)
        for t in range(30):
            family, h = gen_morphism(cfg, t)
            families.add(family)
            h = copy.deepcopy(h)
            for _ in range(3):
                for got, want in (
                    (validate(h.source), orc.naive_identity_failure(h.source)),
                    (validate(h.target), orc.naive_identity_failure(h.target)),
                    (validate_map(h), orc.naive_map_failure(h)),
                ):
                    assert _doc(got.failure) == _doc(want), (seed, t)
                    kinds.add(want and want.kind)
                assert _parts(h) == _validate_parts_before(h), (seed, t)
                entries = [
                    (row, x, h.target.cells[n])
                    for n, row in enumerate(h.level)
                    for x in range(len(row))
                ]
                entries += orc.table_entries(h.source)
                entries += orc.table_entries(h.target)
                if entries:
                    row, x, bound = rng.choice(entries)
                    row[x] = rng.randrange(bound)
    assert "corrupted" in families
    assert kinds == {None, "identity", "naturality"}


def test_validate_map_requires_equal_truncations(zoo):
    X = zoo["interval"]
    Y = build_standard(simplex_spec(1), 2)
    levels = [list(range(c)) for c in Y.cells]
    assert not validate_map(SimplicialMap(Y, X, levels)).ok


def test_classify(zoo, named_maps):
    c = classify(identity_map(zoo["circle"]))
    assert c.injective and c.surjective
    fold = named_maps["curated:fold-interval"]
    c = classify(fold)
    assert c.surjective and not c.injective
    incl = named_maps["vertex-into-interval"]
    c = classify(incl)
    assert c.injective and not c.surjective
    # constant map from the circle into the interval: neither
    const = compose(point_inclusion(zoo["interval"], 0), terminal_map(zoo["circle"]))
    c = classify(const)
    assert not c.injective and not c.surjective


def test_compose_laws(zoo, named_maps):
    h = named_maps["curated:cyclic-double-cover"]
    idA, idB = identity_map(h.source), identity_map(h.target)
    assert compose(h, idA).level == h.level
    assert compose(idB, h).level == h.level
    t = terminal_map(h.target)
    u = point_inclusion(h.source, 0)
    assert (
        compose(compose(t, h), u).level == compose(t, compose(h, u)).level
    )


def test_compose_requires_matching_objects(zoo):
    with pytest.raises(ValueError):
        compose(terminal_map(zoo["circle"]), terminal_map(zoo["interval"]))


def test_vertex_naturality(named_maps):
    h = named_maps["curated:circle-nerve-projection"]
    A = h.source
    for n in range(A.truncation + 1):
        for x in range(A.cells[n]):
            for j in range(n + 1):
                assert A.vertex(n, x, j) == orc.naive_vertex(A, n, x, j)
                # naturality of vertices under the map
                assert h.level[0][A.vertex(n, x, j)] == h.target.vertex(
                    n, h.level[n][x], j
                )


def test_copair_and_fold(zoo):
    X = zoo["interval"]
    f = fold_map(X)
    assert validate_map(f).ok
    both = copair(identity_map(X), identity_map(X))
    assert both.level == f.level
    assert f.source.cells == [2 * c for c in X.cells]
    g = copair(point_inclusion(X, 0), point_inclusion(X, 1))
    assert validate_map(g).ok
    assert g.source.cells == [2] * (X.truncation + 1)


def test_terminal_and_point_inclusion(zoo):
    for name in ("interval", "circle", "nerve-z2"):
        X = zoo[name]
        t = terminal_map(X)
        assert validate_map(t).ok
        assert t.target.cells == [1] * (X.truncation + 1)
        p = point_inclusion(X, 0)
        assert validate_map(p).ok
        assert compose(t, p).level == identity_map(p.source).level
    with pytest.raises(ValueError):
        point_inclusion(zoo["empty"], 0)


def test_cyclic_cover_projection(zoo):
    for k in (1, 2, 3):
        f = cyclic_cover_projection(k, 3)
        assert validate_map(f).ok
        assert f.source.cells == [k * (m + 1) for m in range(4)]
        assert f.target.cells == zoo["circle"].cells
        assert classify(f).surjective


def test_cyclic_cover_projection_checks_like_build_standard():
    # the same errors, word for word, as building cyclic-cover:k
    for k, N in ((0, 3), (-1, 3), (2, 1), (1, 0)):
        with pytest.raises(ValueError) as want:
            build_standard(sk.cyclic_cover_spec(k), N)
        with pytest.raises(ValueError) as got:
            cyclic_cover_projection(k, N)
        assert str(got.value) == str(want.value)
    assert validate(cyclic_cover_projection(2, 2).source).has_buffer


def test_extend_map_preserves_prefix(named_maps):
    for name, h in named_maps.items():
        ext = orc.extend_map(h, h.source.truncation + 1)
        assert validate_map(ext).ok, name
        assert validate(ext.source).ok and validate(ext.target).ok
        for n in range(h.source.truncation + 1):
            assert ext.level[n] == h.level[n]
            assert ext.source.cells[n] == h.source.cells[n]
        assert validate(ext.source).has_buffer


def test_extend_map_noop_at_same_truncation(named_maps):
    h = named_maps["curated:fold-interval"]
    ext = orc.extend_map(h, h.source.truncation)
    assert ext.level == h.level


def test_symmetry_of_fold_sections(zoo):
    # both canonical sections of the fold map are vertex inclusions composed
    # with the two summand inclusions; the fold identifies them
    X = zoo["circle"]
    f = fold_map(X)
    left = [row[: c] for row, c in zip(f.level, X.cells)]
    right = [row[c:] for row, c in zip(f.level, X.cells)]
    assert left == right == [list(range(c)) for c in X.cells]
