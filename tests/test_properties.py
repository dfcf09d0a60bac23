"""Metamorphic properties.

Verdicts do not depend on how cells are numbered, and coverings, trivial
coverings and separable maps are stable under pullback, coverings and
separable maps under composition.
"""

import random

from hypothesis import example, given, settings, strategies as st

import ssetkit as sk
from ssetkit.checks import covering_check, kan_check, revalidate_witness, separable_direct
from ssetkit.components import trivial_covering_check
from ssetkit.core import TruncatedSSet, disjoint_union, validate
from ssetkit.harness import GenConfig, evaluate_instance, gen_morphism
from ssetkit.limits import diagonal, product, pullback
from ssetkit.maps import (
    SimplicialMap,
    compose,
    cyclic_cover_projection,
    fold_map,
    point_inclusion,
    validate_map,
    validate_parts,
)
from ssetkit.standard import build_standard, parse_spec


def _permute_object(X: TruncatedSSet, perms) -> TruncatedSSet:
    """Relabel the cells of each degree n of X by x -> perms[n][x]."""
    N = X.truncation
    face = [[]]
    for n in range(1, N + 1):
        rows = []
        for i in range(n + 1):
            row = [0] * X.cells[n]
            for x, y in enumerate(X.face[n][i]):
                row[perms[n][x]] = perms[n - 1][y]
            rows.append(row)
        face.append(rows)
    degeneracy = []
    for n in range(N):
        rows = []
        for i in range(n + 1):
            row = [0] * X.cells[n]
            for x, y in enumerate(X.degeneracy[n][i]):
                row[perms[n][x]] = perms[n + 1][y]
            rows.append(row)
        degeneracy.append(rows)
    return TruncatedSSet(N, list(X.cells), face, degeneracy)


def relabel(h: SimplicialMap, rng: random.Random) -> SimplicialMap:
    """The same map with the cells of each degree of both ends permuted."""

    def perms_for(X):
        out = []
        for c in X.cells:
            p = list(range(c))
            rng.shuffle(p)
            out.append(p)
        return out

    pa, pb = perms_for(h.source), perms_for(h.target)
    level = []
    for n, row in enumerate(h.level):
        new = [0] * len(row)
        for x, y in enumerate(row):
            new[pa[n][x]] = pb[n][y]
        level.append(new)
    return SimplicialMap(_permute_object(h.source, pa), _permute_object(h.target, pb), level)


_CURATED = sk.curated_instances(3)


def _generated(seed: int, trial: int) -> SimplicialMap | None:
    _, h = gen_morphism(GenConfig(seed=seed), trial)
    return h if validate_parts(h)[1].ok else None


maps = st.one_of(
    st.sampled_from([h for _, h in _CURATED]),
    st.builds(_generated, st.integers(0, 2**16), st.integers(0, 499)).filter(
        lambda h: h is not None
    ),
)

# the five map checks and the diagonal's trivial-covering check
_CHECKS = ("direct", "lifting", "covering", "kan", "trivial", "trivial_delta")


@settings(max_examples=60, deadline=None)
@given(h=maps, rng=st.randoms(use_true_random=False))
def test_verdicts_and_stats_survive_relabelling(h, rng):
    g = relabel(h, rng)
    assert validate(g.source).ok and validate(g.target).ok and validate_map(g).ok
    before, after = evaluate_instance(h), evaluate_instance(g)
    delta = diagonal(g).delta
    for name in _CHECKS:
        want, got = getattr(before, name), getattr(after, name)
        assert (got.verdict, got.stats) == (want.verdict, want.stats), name
        if not got.verdict:
            assert revalidate_witness(delta if name == "trivial_delta" else g, got), name
    # the paper's definition of separability, read on the diagonal
    want, got = kan_check(diagonal(h).delta), kan_check(delta)
    assert (got.verdict, got.stats) == (want.verdict, want.stats), "kan_delta"
    if not got.verdict:
        assert revalidate_witness(delta, got), "kan_delta"


# Closure properties, on maps small enough that their products stay quick.
small_maps = maps.filter(lambda h: sum(h.source.cells) + sum(h.target.cells) <= 150)
_FACTORS = ("simplex:0", "simplex:1", "circle", "boundary:2", "horn:2:1")
_CLOSED_UNDER_PULLBACK = {
    "covering": covering_check,
    "trivial-covering": trivial_covering_check,
    "separable": separable_direct,
}
_CLOSED_UNDER_COMPOSITION = {"covering": covering_check, "separable": separable_direct}


def _assert_closed(checks, parts, whole, label) -> None:
    """Each property in checks that holds for every map in parts holds for whole."""
    assert validate_parts(whole)[1].ok, label
    for name, check in checks.items():
        if all(check(f).verdict for f in parts):
            assert check(whole).verdict, (name, label)


@settings(max_examples=40, deadline=None)
@given(h=small_maps, v=st.integers(0, 2**16), factor=st.sampled_from(_FACTORS))
@example(h=cyclic_cover_projection(3, 3), v=0, factor="circle")
@example(h=fold_map(build_standard(parse_spec("circle"), 3)), v=0, factor="simplex:1")
def test_pullback_keeps_coverings_and_separable_maps(h, v, factor):
    # the pullback of h: A -> B along k: C -> B is pr2: A x_B C -> C
    B = h.target
    along = {"product": product(B, build_standard(parse_spec(factor), B.truncation)).pr1}
    if B.cells[0]:
        along["point"] = point_inclusion(B, v % B.cells[0])
    for label, k in along.items():
        _assert_closed(_CLOSED_UNDER_PULLBACK, [h], pullback(h, k).pr2, label)


def _first_summand(X: TruncatedSSet, Y: TruncatedSSet) -> SimplicialMap:
    """The inclusion of X into X + Y."""
    return SimplicialMap(X, disjoint_union(X, Y), [list(range(c)) for c in X.cells])


def _sum(f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """f + g, from the sum of the sources to the sum of the targets."""
    level = [
        row + [y + f.target.cells[n] for y in g.level[n]] for n, row in enumerate(f.level)
    ]
    return SimplicialMap(
        disjoint_union(f.source, g.source), disjoint_union(f.target, g.target), level
    )


def _composable(h: SimplicialMap, Y: TruncatedSSet) -> dict[str, tuple]:
    """(f, g) pairs with g after f defined, built from h: A -> B."""
    return {
        "h . fold": (fold_map(h.source), h),
        "summand . h": (h, _first_summand(h.target, Y)),
        "fold . (h + h)": (_sum(h, h), fold_map(h.target)),
    }


@settings(max_examples=40, deadline=None)
@given(h=small_maps, factor=st.sampled_from(_FACTORS))
@example(h=cyclic_cover_projection(2, 3), factor="circle")
@example(h=fold_map(build_standard(parse_spec("simplex:1"), 3)), factor="simplex:0")
def test_composition_keeps_coverings_and_separable_maps(h, factor):
    Y = build_standard(parse_spec(factor), h.target.truncation)
    for label, (f, g) in _composable(h, Y).items():
        _assert_closed(_CLOSED_UNDER_COMPOSITION, [f, g], compose(g, f), label)


def test_composites_of_cyclic_covers_are_coverings():
    circle = build_standard(parse_spec("circle"), 3)
    covers = [cyclic_cover_projection(k, 3) for k in (1, 2, 3)]
    pairs = [pair for p in covers for pair in _composable(p, circle).values()]
    pairs += [(_sum(p, q), fold_map(circle)) for p in covers for q in covers]
    for f, g in pairs:
        assert covering_check(f).verdict and covering_check(g).verdict
        _assert_closed(_CLOSED_UNDER_COMPOSITION, [f, g], compose(g, f), "cyclic")
