"""Simplicial maps between truncated objects of equal truncation."""

from __future__ import annotations

from ._record import Frozen, Record
from .core import (
    TruncatedSSet,
    ValidationFailure,
    ValidationReport,
    _first_difference,
    _operators,
    _shape_failure,
    discrete_sset,
    disjoint_union,
    validate,
)
from .standard import build_standard, circle_spec, cyclic_cover_spec


class SimplicialMap(Record):
    """Degreewise function commuting with faces and degeneracies.

    level[n][x] is the image of the n-simplex x.  Source and target must have
    the same truncation.
    """

    _fields = ("source", "target", "level")


class MapClass(Frozen):
    """Whether a map is injective, and whether it is surjective, in every degree."""

    _fields = ("injective", "surjective")


def identity_map(X: TruncatedSSet) -> SimplicialMap:
    return SimplicialMap(X, X, [list(range(c)) for c in X.cells])


def validate_map(f: SimplicialMap) -> ValidationReport:
    """Check totality and naturality, reporting the first violation.

    The shapes of the source and the target are checked first, with one
    min and max per row, so every table entry is in range before any row
    is composed: a malformed end is a "shape" failure whose detail names
    the end.  The level table's shape and naturality come next: naturality
    along every face before every degeneracy, each in ascending degree.  The
    ends' simplicial identities are not checked here: validate_parts checks
    them first.
    """
    for end, X in (("source", f.source), ("target", f.target)):
        bad = _shape_failure(X)
        if bad is not None:
            bad = ValidationFailure("shape", bad.degree, {"end": end, **bad.detail})
            return ValidationReport(failure=bad)
    return ValidationReport(failure=_level_failure(f))


def _level_failure(f: SimplicialMap) -> ValidationFailure | None:
    """The level shape and naturality part of validate_map: both ends' shapes must be sound."""
    A, B = f.source, f.target
    if A.truncation != B.truncation:
        return ValidationFailure("shape", -1, {"reason": "truncation mismatch"})
    N = A.truncation
    if len(f.level) != N + 1:
        return ValidationFailure("shape", -1, {"reason": "level table length"})
    for n in range(N + 1):
        row = f.level[n]
        if len(row) != A.cells[n]:
            return ValidationFailure("shape", n, {"reason": "level row length"})
        if row and (min(row) < 0 or max(row) >= B.cells[n]):
            return ValidationFailure("shape", n, {"reason": "level out of range"})
    # naturality compares composed rows whole, faces before degeneracies; a
    # differing pair is scanned for its first bad x
    for name, step, degrees in _operators(N):
        ops_a, ops_b = getattr(A, name), getattr(B, name)
        for n in degrees:
            for i, (row_a, row_b) in enumerate(zip(ops_a[n], ops_b[n])):
                got = list(map(f.level[n + step].__getitem__, row_a))
                want = list(map(row_b.__getitem__, f.level[n]))
                if got != want:
                    x = _first_difference(got, want)
                    return ValidationFailure("naturality", n, {"op": name, "i": i, "simplex": x})
    return None


def validate_parts(f: SimplicialMap) -> tuple[str, ValidationReport]:
    """Validate the source, the target and the map, in that order.

    Returns the first failing part as (label, report), or ("map", the
    passing report) when all three are valid.  The map part is validate_map
    without its check of the ends' shapes, which validate has just made.
    """
    for label, X in (("source", f.source), ("target", f.target)):
        rep = validate(X)
        if not rep.ok:
            return label, rep
    return "map", ValidationReport(failure=_level_failure(f))


def compose(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    """g after f."""
    if f.target != g.source:
        raise ValueError("endpoint mismatch: target of f must equal source of g")
    return SimplicialMap(
        f.source, g.target, [[g.level[n][v] for v in f.level[n]] for n in range(len(f.level))]
    )


def classify(f: SimplicialMap) -> MapClass:
    inj = all(len(set(row)) == len(row) for row in f.level)
    surj = all(
        len(set(f.level[n])) == f.target.cells[n] for n in range(f.target.truncation + 1)
    )
    return MapClass(inj, surj)


def copair(f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """Map out of the disjoint union of the two sources, into a shared target."""
    if f.target != g.target:
        raise ValueError("copair requires a shared target")
    U = disjoint_union(f.source, g.source)
    return SimplicialMap(
        U, f.target, [f.level[n] + g.level[n] for n in range(U.truncation + 1)]
    )


def fold_map(X: TruncatedSSet) -> SimplicialMap:
    """Codiagonal X + X -> X."""
    i = identity_map(X)
    return copair(i, i)


def terminal_map(X: TruncatedSSet) -> SimplicialMap:
    """Unique map to the one-point object at the same truncation."""
    T = discrete_sset(1, X.truncation)
    return SimplicialMap(X, T, [[0] * c for c in X.cells])


def point_inclusion(X: TruncatedSSet, v: int) -> SimplicialMap:
    """Inclusion of the vertex v as a map from the one-point object."""
    if not 0 <= v < X.cells[0]:
        raise ValueError("vertex out of range")
    P = discrete_sset(1, X.truncation)
    level = [[v]]
    cur = v
    for n in range(X.truncation):
        cur = X.degeneracy[n][0][cur]
        level.append([cur])
    return SimplicialMap(P, X, level)


def cyclic_cover_projection(k: int, truncation: int) -> SimplicialMap:
    """The k-fold cover of the circle, wrapping k vertices and k edges around.

    k and the truncation are checked as build_standard checks cyclic-cover:k.
    The level is read off the cell numbering: the m-cells of both ends list
    their vertices first, then the m surjections [m] -> [1] of each edge in
    one order.  So every vertex lies over the circle's cell 0, and the i-th
    cell of each edge (i = 0, ..., m - 1) over the circle's cell 1 + i.
    """
    C = build_standard(cyclic_cover_spec(k), truncation)
    S = build_standard(circle_spec(), truncation)
    level = [[0] * k + list(range(1, m + 1)) * k for m in range(truncation + 1)]
    return SimplicialMap(C, S, level)
