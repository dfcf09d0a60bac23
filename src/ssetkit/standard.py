"""Builders for the standard finite objects.

Every object here is built by one keyed table builder: the m-cells are a
list of keys in a fixed order, and a face or degeneracy of a cell is
looked up as the key it names.  For a standard simplex the keys are the
monotone maps [m] -> [n] as nondecreasing tuples in lexicographic order;
precomposition with a coface drops an entry, and with a codegeneracy
repeats one.  Boundaries and horns keep the tuples of the evident
subcomplexes.  A cell of a cyclic cover (the circle is the one-fold
cover) is keyed (phi, d, c), a vertex or an edge c under a monotone
surjection phi; a face that collapses the edge names the vertex it lands
on.  Nerves (in ``groupoids``) are keyed by their composable strings.
"""

from __future__ import annotations

import re
from itertools import accumulate, combinations_with_replacement
from math import comb
from typing import Callable, Hashable

from ._record import Frozen
from .core import TruncatedSSet, _check_budget, _operators, disjoint_union


def monotone_maps(m: int, n: int) -> list[tuple[int, ...]]:
    """All monotone maps [m] -> [n] as nondecreasing tuples, lex ordered."""
    return list(combinations_with_replacement(range(n + 1), m + 1))


# The number of parameters each non-union kind takes.
_ARITY = {"simplex": 1, "boundary": 1, "horn": 2, "circle": 0, "cyclic-cover": 1}


class StandardObjectSpec(Frozen):
    """Description of a standard object.

    kind: "simplex" | "boundary" | "horn" | "circle" | "cyclic-cover" | "union".
    params: (n,) for simplex/boundary, (n, k) for horn, (k,) for cyclic-cover,
    () for circle; union holds sub-specs in ``parts``.
    """

    _fields = ("kind", "params", "parts")
    _defaults = {"params": (), "parts": ()}

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


def _object_from_keys(
    keys: list[list[Hashable]],
    face_key: Callable[[Hashable, int], Hashable],
    degeneracy_key: Callable[[Hashable, int], Hashable],
) -> TruncatedSSet:
    """The object whose m-cells are keys[m], in order.

    d_i of the m-cell k is the (m-1)-cell face_key(k, i), and s_i of k is
    the (m+1)-cell degeneracy_key(k, i).
    """
    N = len(keys) - 1
    index = [{k: c for c, k in enumerate(at_m)} for at_m in keys]
    face, degeneracy = (
        [[[index[m + step][key(k, i)] for k in keys[m]] for i in range(m + 1)] for m in degrees]
        for (_, step, degrees), key in zip(_operators(N), (face_key, degeneracy_key))
    )
    return TruncatedSSet(N, [len(at_m) for at_m in keys], [[]] + face, degeneracy)


def _tables_from_tuples(
    n: int, truncation: int, keep: Callable[[tuple[int, ...]], bool]
) -> TruncatedSSet:
    # precomposing t with delta_i drops entry i of t, and with sigma_i repeats it
    keys = [[t for t in monotone_maps(m, n) if keep(t)] for m in range(truncation + 1)]
    return _object_from_keys(
        keys, lambda t, i: t[:i] + t[i + 1 :], lambda t, i: t[: i + 1] + t[i:]
    )


def _cyclic_object(k: int, truncation: int) -> TruncatedSSet:
    """The k-fold cyclic cover of the circle.

    Vertex c and the edge from c to c + 1 mod k give the m-cells (phi, d, c),
    ordered by (d, c, phi): phi is a monotone surjection [m] -> [d] for the
    vertex (d = 0) or the edge (d = 1).  So the k vertices come first, then
    the m surjections of each edge in turn.  A face drops an entry of phi;
    when what remains, psi, is constant, the edge has collapsed to its end
    c + psi[0] mod k.  A degeneracy repeats an entry.
    """
    keys = [
        [
            (phi, d, c)
            for d in range(min(m, 1) + 1)
            for c in range(k)
            for phi in monotone_maps(m, d)
            if phi[0] == 0 and phi[-1] == d
        ]
        for m in range(truncation + 1)
    ]

    def face_key(key: tuple, i: int) -> tuple:
        phi, d, c = key
        psi = phi[:i] + phi[i + 1 :]
        if psi[0] == psi[-1]:
            return ((0,) * len(psi), 0, (c + psi[0]) % k)
        return (psi, d, c)

    def degeneracy_key(key: tuple, i: int) -> tuple:
        phi, d, c = key
        return (phi[: i + 1] + phi[i:], d, c)

    return _object_from_keys(keys, face_key, degeneracy_key)


def _cells(spec: StandardObjectSpec, m: int) -> int:
    """The number of m-cells of the object spec describes, at any truncation >= m."""
    if spec.kind == "union":
        return sum(_cells(p, m) for p in spec.parts)
    if spec.kind in ("circle", "cyclic-cover"):
        return (spec.params or (1,))[0] * (m + 1)
    # the monotone maps [m] -> [n], less those onto [n] for a boundary, and
    # for a horn also those onto [n] minus k: C(m, n) + C(m, n - 1) = C(m + 1, n)
    n = spec.params[0]
    missing = {"simplex": 0, "boundary": comb(m, n), "horn": comb(m + 1, n)}
    return comb(m + n + 1, n) - missing[spec.kind]


def build_standard(spec: StandardObjectSpec, truncation: int) -> TruncatedSSet:
    """Build a standard object at the requested truncation.

    The truncation must leave a buffer degree above the last nondegenerate
    cells so that checks quantifying over stored degrees see every horn and
    square that matters.  ValueError is raised, before anything is built,
    for a bad spec, a truncation too small or more cells than CELL_BUDGET.
    The cells are counted degree by degree, up to the first degree over the
    budget, so every count stays small.
    """
    spec.check()
    if truncation < spec.nondegenerate_dim() + 1:
        raise ValueError(
            f"truncation too small: need at least {spec.nondegenerate_dim() + 1}"
        )
    for cells in accumulate(_cells(spec, m) for m in range(truncation + 1)):
        _check_budget(cells, f"{spec.kind} at truncation {truncation}")
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
    if spec.kind in ("circle", "cyclic-cover"):
        # the circle is the one-fold cyclic cover
        return _cyclic_object(*spec.params or (1,), truncation)
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
