"""Finite groupoids, their nerves, and fundamental-groupoid presentations.

The nerve of a groupoid has composable arrow strings as simplices: outer
faces drop an end arrow, inner faces compose adjacent arrows, degeneracies
insert identities.  It is built straight from those strings by the keyed
table builder of ``standard``.  Presentations extracted from an object are purely
syntactic: one generator per 1-simplex, the relations "s_0(v) is an
identity" and "d_1 = d_0 . d_2" per 2-simplex.  No word problem is solved.
"""

from __future__ import annotations

from itertools import accumulate

from ._record import Record
from .core import TruncatedSSet, _check_budget
from .standard import _object_from_keys


class FiniteGroupoid(Record):
    """Objects 0..n_objects-1; arrows indexed with explicit structure tables.

    source[a] and target[a] are the ends of arrow a; compose maps (g, f) to
    g after f; identity[x] is the identity arrow of object x, and
    inverse[a] the inverse of arrow a.
    """

    _fields = ("n_objects", "source", "target", "compose", "identity", "inverse")

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


def nerve(G: FiniteGroupoid, truncation: int) -> TruncatedSSet:
    """Nerve of the groupoid, truncated.

    The m-cells are the composable strings of m arrows, identities
    included, keyed (o, w) by their first object o and the string w.  They
    are ordered by the string with its identities removed, shorter first
    (by o when nothing is left), then by where the identities sit.  Nerves
    generally carry nondegenerate simplices at every stored degree, so the
    validation report flags the absent buffer without failing.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    ids = set(G.identity)
    out = [[g for g in range(G.n_arrows) if G.source[g] == o] for o in range(G.n_objects)]
    # upto[o]: the strings of at most m arrows from o, for m = 0..truncation;
    # such a string is empty, or an arrow g out of o and one from target g
    upto = [1] * G.n_objects
    for _ in range(truncation + 1):
        _check_budget(sum(upto), f"nerve at truncation {truncation}")
        upto = [1 + sum(upto[G.target[g]] for g in out[o]) for o in range(G.n_objects)]

    def vertex(o: int, w: tuple, i: int) -> int:
        return G.target[w[i - 1]] if i else o

    strings = [[(o, ()) for o in range(G.n_objects)]]
    for m in range(truncation):
        strings.append([(o, w + (g,)) for o, w in strings[-1] for g in out[vertex(o, w, m)]])

    def order(key: tuple) -> tuple:
        o, w = key
        kept = tuple(g for g in w if g not in ids)
        tau = tuple(accumulate(g not in ids for g in w))
        return (len(kept), kept or (o,), tau)

    def face_key(key: tuple, i: int) -> tuple:
        o, w = key
        if i == 0:
            return (G.target[w[0]], w[1:])
        if i == len(w):
            return (o, w[:-1])
        return (o, w[: i - 1] + (G.compose[(w[i], w[i - 1])],) + w[i + 1 :])

    def degeneracy_key(key: tuple, i: int) -> tuple:
        o, w = key
        return (o, w[:i] + (G.identity[vertex(o, w, i)],) + w[i:])

    keys = [sorted(at_m, key=order) for at_m in strings]
    return _object_from_keys(keys, face_key, degeneracy_key)


class GroupoidPresentation(Record):
    """Syntactic presentation read off the 1- and 2-skeleton of an object.

    Generators are all 1-simplices (source d_1, target d_0).  Relations:
    (v, g) per vertex marking g = s_0(v) as an identity, and per 2-simplex
    sigma the triangle (sigma, d_1 sigma, d_0 sigma, d_2 sigma) read as
    "d_1 = d_0 . d_2".
    """

    _fields = (
        "n_objects", "generator_source", "generator_target", "identity_relations",
        "triangle_relations",
    )

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
