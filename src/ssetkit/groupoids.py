"""Finite groupoids, their nerves, and fundamental-groupoid presentations.

The nerve of a groupoid has composable arrow strings as simplices: outer
faces drop an end arrow, inner faces compose adjacent arrows, degeneracies
insert identities.  Presentations extracted from an object are purely
syntactic: one generator per 1-simplex, the relations "s_0(v) is an
identity" and "d_1 = d_0 . d_2" per 2-simplex.  No word problem is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import TruncatedSSet
from .standard import FormalCell, skeleton_sset


@dataclass
class FiniteGroupoid:
    """Objects 0..n_objects-1; arrows indexed with explicit structure tables."""

    n_objects: int
    source: list[int]
    target: list[int]
    compose: dict[tuple[int, int], int]  # (g, f) -> g after f
    identity: list[int]  # per object
    inverse: list[int]  # per arrow

    @property
    def n_arrows(self) -> int:
        return len(self.source)


def cyclic_group_groupoid(k: int) -> FiniteGroupoid:
    """One object, arrows the residues mod k under addition."""
    if k < 1:
        raise ValueError("need k >= 1")
    comp = {(a, b): (a + b) % k for a in range(k) for b in range(k)}
    return FiniteGroupoid(1, [0] * k, [0] * k, comp, [0], [(-a) % k for a in range(k)])


def codiscrete_groupoid(m: int) -> FiniteGroupoid:
    """m objects with exactly one arrow between any ordered pair."""
    if m < 1:
        raise ValueError("need m >= 1")
    arrows = [(s, t) for s in range(m) for t in range(m)]
    idx = {a: i for i, a in enumerate(arrows)}
    comp = {}
    for g, (gs, gt) in enumerate(arrows):
        for f, (fs, ft) in enumerate(arrows):
            if ft == gs:
                comp[(g, f)] = idx[(fs, gt)]
    return FiniteGroupoid(
        m,
        [s for s, _ in arrows],
        [t for _, t in arrows],
        comp,
        [idx[(o, o)] for o in range(m)],
        [idx[(t, s)] for s, t in arrows],
    )


def _identity_free_strings(G: FiniteGroupoid, length: int) -> list[tuple[int, ...]]:
    ids = set(G.identity)
    if length == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...]):
        if len(prefix) == length:
            out.append(prefix)
            return
        for g in range(G.n_arrows):
            if g in ids:
                continue
            if prefix and G.source[g] != G.target[prefix[-1]]:
                continue
            rec(prefix + (g,))

    rec(())
    return out


def nerve(G: FiniteGroupoid, truncation: int) -> TruncatedSSet:
    """Nerve of the groupoid, truncated.

    Nerves generally carry nondegenerate simplices at every stored degree, so
    the validation report flags the absent buffer without failing.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    strings = [_identity_free_strings(G, d) for d in range(truncation + 1)]
    # degree-0 nondegenerate cells are the objects themselves
    counts = [G.n_objects] + [len(strings[d]) for d in range(1, truncation + 1)]
    index = [
        {s: i for i, s in enumerate(strings[d])} for d in range(truncation + 1)
    ]
    ids = set(G.identity)

    def canonical(raw: tuple[int, ...], objects: list[int]) -> FormalCell:
        # strip identity arrows, recording the vertex collapse they induce
        tau = [0]
        stripped = []
        for t, g in enumerate(raw):
            if g in ids:
                tau.append(tau[-1])
            else:
                tau.append(tau[-1] + 1)
                stripped.append(g)
        if not stripped:
            return (tuple(tau), 0, objects[0])
        return (tuple(tau), len(stripped), index[len(stripped)][tuple(stripped)])

    def faces_fn(d: int, c: int, i: int) -> FormalCell:
        if d == 1:
            g = strings[1][c][0]
            v = G.target[g] if i == 0 else G.source[g]
            return ((0,), 0, v)
        w = strings[d][c]
        if i == 0:
            raw = w[1:]
        elif i == d:
            raw = w[:-1]
        else:
            raw = w[: i - 1] + (G.compose[(w[i], w[i - 1])],) + w[i + 1 :]
        objs = [G.source[raw[0]]] if raw else [G.source[w[0]] if i > 0 else G.target[w[0]]]
        return canonical(raw, objs)

    return skeleton_sset(counts, faces_fn, truncation)[0]


@dataclass
class GroupoidPresentation:
    """Syntactic presentation read off the 1- and 2-skeleton of an object.

    Generators are all 1-simplices (source d_1, target d_0).  Relations:
    (v, g) per vertex marking g = s_0(v) as an identity, and per 2-simplex
    sigma the triangle (sigma, d_1 sigma, d_0 sigma, d_2 sigma) read as
    "d_1 = d_0 . d_2".
    """

    n_objects: int
    generator_source: list[int]
    generator_target: list[int]
    identity_relations: list[tuple[int, int]]
    triangle_relations: list[tuple[int, int, int, int]]

    def format_text(self) -> str:
        lines = [f"objects: {self.n_objects}", "generators:"]
        for g in range(len(self.generator_source)):
            lines.append(
                f"  a{g} : {self.generator_source[g]} -> {self.generator_target[g]}"
            )
        lines.append("relations:")
        for v, g in self.identity_relations:
            lines.append(f"  a{g} = id_{v}")
        for _, left, second, first in self.triangle_relations:
            lines.append(f"  a{left} = a{second} . a{first}")
        return "\n".join(lines) + "\n"

    def to_doc(self) -> dict:
        return {
            "objects": self.n_objects,
            "generators": [
                [self.generator_source[g], self.generator_target[g]]
                for g in range(len(self.generator_source))
            ],
            "identity_relations": [list(r) for r in self.identity_relations],
            "triangle_relations": [list(r) for r in self.triangle_relations],
        }


def pi1_presentation(X: TruncatedSSet) -> GroupoidPresentation:
    """Presentation of the fundamental groupoid from degrees <= 2."""
    if X.truncation < 2:
        raise ValueError("need truncation >= 2 to read off triangle relations")
    gen_src = [X.face[1][1][e] for e in range(X.cells[1])]
    gen_tgt = [X.face[1][0][e] for e in range(X.cells[1])]
    identities = [(v, X.degeneracy[0][0][v]) for v in range(X.cells[0])]
    triangles = [
        (t, X.face[2][1][t], X.face[2][0][t], X.face[2][2][t])
        for t in range(X.cells[2])
    ]
    return GroupoidPresentation(X.cells[0], gen_src, gen_tgt, identities, triangles)
