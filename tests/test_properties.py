"""Metamorphic properties: verdicts do not depend on how cells are numbered."""

import random

from hypothesis import given, settings, strategies as st

import ssetkit as sk
from ssetkit.checks import revalidate_witness
from ssetkit.core import TruncatedSSet, validate
from ssetkit.harness import GenConfig, evaluate_instance, gen_morphism
from ssetkit.limits import diagonal
from ssetkit.maps import SimplicialMap, validate_map, validate_parts


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
