"""Builders for the standard finite objects.

Standard simplices are realized concretely: the m-simplices of Delta[n] are
the monotone maps [m] -> [n], stored as nondecreasing tuples in lexicographic
order, with faces and degeneracies given by precomposition.  Boundaries and
horns are the evident subcomplexes.  Circles and cyclic covers are generated
from a nondegenerate skeleton.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

from .core import TruncatedSSet, disjoint_union


def monotone_maps(m: int, n: int) -> list[tuple[int, ...]]:
    """All monotone maps [m] -> [n] as nondecreasing tuples, lex ordered."""
    return list(combinations_with_replacement(range(n + 1), m + 1))


def delta_op(i: int, p: int) -> tuple[int, ...]:
    """Injection [p-1] -> [p] skipping i."""
    return tuple(t if t < i else t + 1 for t in range(p))


def sigma_op(i: int, p: int) -> tuple[int, ...]:
    """Surjection [p+1] -> [p] hitting i twice."""
    return tuple(t if t <= i else t - 1 for t in range(p + 2))


def compose_monotone(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """f after g, as tuples."""
    return tuple(f[t] for t in g)


# The number of parameters each non-union kind takes.
_ARITY = {"simplex": 1, "boundary": 1, "horn": 2, "circle": 0, "cyclic-cover": 1}


@dataclass(frozen=True)
class StandardObjectSpec:
    """Description of a standard object.

    kind: "simplex" | "boundary" | "horn" | "circle" | "cyclic-cover" | "union".
    params: (n,) for simplex/boundary, (n, k) for horn, (k,) for cyclic-cover,
    () for circle; union holds sub-specs in ``parts``.
    """

    kind: str
    params: tuple[int, ...] = ()
    parts: tuple["StandardObjectSpec", ...] = ()

    def check(self) -> None:
        if self.kind == "union":
            if not self.parts:
                raise ValueError("empty union spec")
            for p in self.parts:
                p.check()
            return
        if self.kind not in _ARITY:
            raise ValueError(f"unknown standard kind {self.kind!r}")
        arity = _ARITY[self.kind]
        if len(self.params) != arity:
            takes = {0: "no parameters", 1: "1 parameter"}.get(arity, f"{arity} parameters")
            raise ValueError(f"{self.kind} takes {takes}")
        if self.kind == "simplex" or self.kind == "boundary":
            if self.params[0] < 0:
                raise ValueError("simplex dimension must be >= 0")
        elif self.kind == "horn":
            n, k = self.params
            if n < 1 or not 0 <= k <= n:
                raise ValueError("horn requires n >= 1 and 0 <= k <= n")
        elif self.kind == "cyclic-cover":
            if self.params[0] < 1:
                raise ValueError("cyclic cover needs k >= 1")

    def nondegenerate_dim(self) -> int:
        if self.kind == "simplex":
            return self.params[0]
        if self.kind == "boundary":
            return self.params[0] - 1
        if self.kind == "horn":
            return self.params[0] - 1
        if self.kind in ("circle", "cyclic-cover"):
            return 1
        return max(p.nondegenerate_dim() for p in self.parts)


def simplex_spec(n: int) -> StandardObjectSpec:
    return StandardObjectSpec("simplex", (n,))


def boundary_spec(n: int) -> StandardObjectSpec:
    return StandardObjectSpec("boundary", (n,))


def horn_spec(n: int, k: int) -> StandardObjectSpec:
    return StandardObjectSpec("horn", (n, k))


def circle_spec() -> StandardObjectSpec:
    return StandardObjectSpec("circle")


def cyclic_cover_spec(k: int) -> StandardObjectSpec:
    return StandardObjectSpec("cyclic-cover", (k,))


def union_spec(*parts: StandardObjectSpec) -> StandardObjectSpec:
    return StandardObjectSpec("union", parts=tuple(parts))


def _tables_from_tuples(
    n: int, truncation: int, keep: Callable[[tuple[int, ...]], bool]
) -> TruncatedSSet:
    per_degree: list[list[tuple[int, ...]]] = []
    index: list[dict[tuple[int, ...], int]] = []
    for m in range(truncation + 1):
        chosen = [t for t in monotone_maps(m, n) if keep(t)]
        per_degree.append(chosen)
        index.append({t: c for c, t in enumerate(chosen)})
    face: list[list[list[int]]] = [[]]
    for m in range(1, truncation + 1):
        face.append(
            [
                [index[m - 1][compose_monotone(t, delta_op(i, m))] for t in per_degree[m]]
                for i in range(m + 1)
            ]
        )
    degeneracy = []
    for m in range(truncation):
        degeneracy.append(
            [
                [index[m + 1][compose_monotone(t, sigma_op(i, m))] for t in per_degree[m]]
                for i in range(m + 1)
            ]
        )
    return TruncatedSSet(truncation, [len(p) for p in per_degree], face, degeneracy)


# A formal cell is (phi, d, c): the image of the nondegenerate d-cell c under
# the monotone surjection phi.  Skeleton face callbacks must return formal
# cells already in this canonical form.
FormalCell = tuple[tuple[int, ...], int, int]


def _act_on_skeleton(
    alpha: tuple[int, ...], d: int, c: int, faces_fn: Callable[[int, int, int], FormalCell]
) -> FormalCell:
    """Canonical form of X(alpha)(c) for a nondegenerate d-cell c."""
    image = set(alpha)
    if len(image) == d + 1:
        return (tuple(alpha), d, c)
    v = max(w for w in range(d + 1) if w not in image)
    alpha2 = tuple(a if a < v else a - 1 for a in alpha)
    psi, e, b = faces_fn(d, c, v)
    return _act_on_skeleton(compose_monotone(psi, alpha2), e, b, faces_fn)


def skeleton_sset(
    counts: list[int],
    faces_fn: Callable[[int, int, int], FormalCell],
    truncation: int,
) -> tuple[TruncatedSSet, list[list[FormalCell]]]:
    """Generate an object from nondegenerate cell counts per dimension.

    faces_fn(d, c, i) must give the canonical formal cell d_i(c) for each
    nondegenerate d-cell c.  Returns the object together with the ordered
    formal-cell keys per degree (useful for building maps between generated
    objects).
    """
    top = len(counts) - 1
    keys: list[list[FormalCell]] = []
    index: list[dict[FormalCell, int]] = []
    for m in range(truncation + 1):
        at_m: list[FormalCell] = []
        for d in range(min(m, top) + 1):
            epis = [t for t in monotone_maps(m, d) if len(set(t)) == d + 1]
            for c in range(counts[d]):
                for phi in epis:
                    at_m.append((phi, d, c))
        at_m.sort(key=lambda k: (k[1], k[2], k[0]))
        keys.append(at_m)
        index.append({k: i for i, k in enumerate(at_m)})
    face: list[list[list[int]]] = [[]]
    for m in range(1, truncation + 1):
        rows = []
        for i in range(m + 1):
            row = []
            for phi, d, c in keys[m]:
                row.append(index[m - 1][_act_on_skeleton(phi[:i] + phi[i + 1 :], d, c, faces_fn)])
            rows.append(row)
        face.append(rows)
    degeneracy = []
    for m in range(truncation):
        rows = []
        for i in range(m + 1):
            row = []
            for phi, d, c in keys[m]:
                row.append(index[m + 1][(phi[: i + 1] + phi[i:], d, c)])
            rows.append(row)
        degeneracy.append(rows)
    X = TruncatedSSet(truncation, [len(k) for k in keys], face, degeneracy)
    return X, keys


def _cyclic_skeleton(k: int):
    # k vertices, k nondegenerate edges, edge e_i running v_i -> v_{i+1 mod k}.
    def faces_fn(d: int, c: int, i: int) -> FormalCell:
        assert d == 1
        if i == 0:
            return ((0,), 0, (c + 1) % k)  # target vertex
        return ((0,), 0, c)  # source vertex
    return [k, k], faces_fn


def build_standard(spec: StandardObjectSpec, truncation: int) -> TruncatedSSet:
    """Build a standard object at the requested truncation.

    The truncation must leave a buffer degree above the last nondegenerate
    cells so that checks quantifying over stored degrees see every horn and
    square that matters.
    """
    spec.check()
    if truncation < spec.nondegenerate_dim() + 1:
        raise ValueError(
            f"truncation too small: need at least {spec.nondegenerate_dim() + 1}"
        )
    if spec.kind == "simplex":
        (n,) = spec.params
        return _tables_from_tuples(n, truncation, lambda t: True)
    if spec.kind == "boundary":
        (n,) = spec.params
        return _tables_from_tuples(n, truncation, lambda t: len(set(t)) < n + 1)
    if spec.kind == "horn":
        n, k = spec.params
        return _tables_from_tuples(
            n, truncation, lambda t: len(set(t) | {k}) < n + 1
        )
    if spec.kind == "circle":
        counts, faces_fn = _cyclic_skeleton(1)
        return skeleton_sset(counts, faces_fn, truncation)[0]
    if spec.kind == "cyclic-cover":
        counts, faces_fn = _cyclic_skeleton(spec.params[0])
        return skeleton_sset(counts, faces_fn, truncation)[0]
    # union
    parts = [build_standard(p, truncation) for p in spec.parts]
    out = parts[0]
    for p in parts[1:]:
        out = disjoint_union(out, p)
    return out


def parse_spec(text: str) -> StandardObjectSpec:
    """Parse and check a compact spec string such as "simplex:2" or "horn:2:1".

    A parameter is an optional minus sign and ASCII digits, nothing else:
    no spaces, underscores, plus signs or other scripts' digits.
    """
    kind, *params = text.split(":")
    if kind not in _ARITY:
        raise ValueError(f"unknown standard kind {kind!r}")
    for p in params:
        if not re.fullmatch("-?[0-9]+", p):
            raise ValueError(f"spec {text!r}: parameter {p!r} is not an integer")
    spec = StandardObjectSpec(kind, tuple(int(p) for p in params))
    spec.check()
    return spec
