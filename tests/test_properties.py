"""Metamorphic properties.

Verdicts do not depend on how cells are numbered, and coverings, trivial
coverings and separable maps are stable under pullback (along a product
projection, a vertex inclusion and a component inclusion), coverings and
separable maps under composition.  A lazy row sequence reads like the list
of its rows.  A failing property is reported as a failed test.
"""

import copy
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import component_inclusion, relabel
import ssetkit as sk
from ssetkit.checks import covering_check, kan_check, revalidate_witness, separable_direct
from ssetkit.components import _Rows, trivial_covering_check
from ssetkit.core import TruncatedSSet, discrete_sset, disjoint_union, validate
from ssetkit.harness import GenConfig, evaluate_instance, gen_morphism
from ssetkit.limits import diagonal, product, pullback
from ssetkit.maps import (
    SimplicialMap,
    compose,
    cyclic_cover_projection,
    fold_map,
    point_inclusion,
    terminal_map,
    validate_map,
    validate_parts,
)
from ssetkit.standard import build_standard, parse_spec


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
# a trivial covering whose pullback has more cells in degree 1 than vertices
@example(h=terminal_map(discrete_sset(2, 3)), v=0, factor="simplex:1")
def test_pullback_keeps_coverings_and_separable_maps(h, v, factor):
    # the pullback of h: A -> B along k: C -> B is pr2: A x_B C -> C
    B = h.target
    along = {"product": product(B, build_standard(parse_spec(factor), B.truncation)).pr1}
    if B.cells[0]:
        along["point"] = point_inclusion(B, v % B.cells[0])
        along["component"] = component_inclusion(B, v % B.cells[0])
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


_COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda rows: pickle.loads(pickle.dumps(rows)),
}


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.integers(0, 9), max_size=4), max_size=5), data=st.data())
def test_lazy_rows_read_like_the_list_of_their_rows(rows, data):
    calls: list[int] = []

    def lazy() -> _Rows:
        return _Rows(len(rows), lambda n: calls.append(n) or list(rows[n]))

    got = lazy()
    for n in data.draw(st.lists(st.integers(-len(rows) - 2, len(rows) + 1)), "indices"):
        if -len(rows) <= n < len(rows):
            assert got[n] == rows[n] and got[n] is got[n], n
        else:
            with pytest.raises(IndexError):
                got[n]
    # each row is built once, on its first read
    assert sorted(calls) == sorted(set(calls))
    part = data.draw(st.slices(len(rows)), "slice")
    assert lazy()[part] == rows[part] and type(lazy()[part]) is list
    assert list(lazy()) == rows and len(lazy()) == len(rows) and repr(lazy()) == repr(rows)
    assert lazy() == rows and rows == lazy() and lazy() == lazy()
    other = rows + [[]]
    assert lazy() != other and other != lazy()
    for name, copier in _COPIERS.items():
        for rows_read in (0, len(rows) // 2):
            orig = lazy()
            orig[:rows_read]
            c = copier(orig)
            assert type(c) is list and c == rows, name


def test_a_failing_property_is_reported_as_failed(tmp_path):
    # hypothesis's failure report imports modules that warn on import; the
    # suite's warnings-as-errors setting must not turn that into an internal error
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 0
    """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    argv = ["-c", str(config), "-p", "no:cacheprovider", "test_fails.py"]
    out = subprocess.run(
        [sys.executable, "-m", "pytest", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "FAILED" in out.stdout and "INTERNALERROR" not in out.stdout
