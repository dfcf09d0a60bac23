"""Finite limits: fiber products, products, diagonals.

A fiber product is stored as an honest object whose n-simplices are the
pairs (x, y) with f(x) = g(y), indexed in lexicographic order of (x, y); the
projections are simplicial maps.  Pair order is part of the contract so that
witnesses and serialized instances are reproducible.

Cells are found by arithmetic, not by search: the pairs are x-major, so the
index of (x, y) at degree n is offset[n][x] (the number of pairs before x)
plus rank[n][y] (the position of y in its fiber of g).  The face and
degeneracy tables of the fiber product are filled that way when they are
first read, which is valid because f and g are simplicial: d_i x and d_i y
again lie over one base cell.  pi0 of the fiber product is taken from the
pairs by the same arithmetic and builds no tables, so a caller that reads
only cell counts and components (the separability checks on a diagonal)
never builds them.  The pair tuples and the tuple-keyed index dicts are
built only when read.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .components import ComponentPartition, _vertex_classes
from .core import TruncatedSSet
from .maps import SimplicialMap, terminal_map


class _FiberProductObject(TruncatedSSet):
    """The object of a fiber product, its tables built when first read.

    Until face or degeneracy is read, only truncation and cells are stored;
    the first read of either builds both and stores them as plain
    attributes, so later reads cost what they cost on any TruncatedSSet.
    pi0 is computed from the pairs and builds no tables.  The object equals
    a TruncatedSSet with the same tables, in either order, and copies and
    pickles of it are plain TruncatedSSets that carry the tables.
    """

    def __init__(
        self,
        truncation: int,
        cells: list[int],
        tables: Callable[[], tuple[list, list]],
        partition: Callable[[TruncatedSSet], ComponentPartition],
    ) -> None:
        self.truncation, self.cells = truncation, cells
        self._derived = {}
        self._tables, self._partition = tables, partition

    def __getattr__(self, name: str):
        # reached only while face and degeneracy are not yet stored
        if name not in ("face", "degeneracy"):
            raise AttributeError(name)
        self.face, self.degeneracy = self._tables()
        return self.__dict__[name]

    def derived(self, name: str, build: Callable):
        # components.pi0 asks for "pi0": take it from the pairs instead
        return super().derived(name, self._partition if name == "pi0" else build)

    def __eq__(self, other: object) -> bool:
        # the dataclass __eq__ requires the exact class on both sides
        if not isinstance(other, TruncatedSSet):
            return NotImplemented
        return (self.truncation, self.cells) == (other.truncation, other.cells) and (
            self.face, self.degeneracy
        ) == (other.face, other.degeneracy)

    def __reduce_ex__(self, protocol):
        # copy.copy, copy.deepcopy and pickle: a plain object with the tables
        return TruncatedSSet, (self.truncation, self.cells, self.face, self.degeneracy)


@dataclass
class FiberProduct:
    """The fiber product of f and g with its two projections.

    The cell of the pair (x, y) at degree n is offset[n][x] + rank[n][y].
    object builds its face and degeneracy tables when they are first read,
    and its pi0 comes from offset and rank without them.  pairs[n][p] is the
    pair (x, y) of cell p, read off the projections, and index[n][(x, y)]
    is p; both are built on first read.
    """

    object: TruncatedSSet
    pr1: SimplicialMap
    pr2: SimplicialMap
    # offset[n][x] is the number of pairs (x', y) with x' < x
    offset: list[list[int]]
    # rank[n][y] is the number of y' < y with g(y') = g(y)
    rank: list[list[int]]

    @functools.cached_property
    def pairs(self) -> list[list[tuple[int, int]]]:
        return [list(zip(xs, ys)) for xs, ys in zip(self.pr1.level, self.pr2.level)]

    @functools.cached_property
    def index(self) -> list[dict[tuple[int, int], int]]:
        return [{p: i for i, p in enumerate(at_n)} for at_n in self.pairs]


def pullback(f: SimplicialMap, g: SimplicialMap) -> FiberProduct:
    """Fiber product of f and g over their shared target.

    f and g must be simplicial maps (they must pass validate_map): the
    tables, built on first read, are filled by offset + rank arithmetic,
    and pi0 of the object is read off the pairs by the same arithmetic,
    without the check that each simplex lies in one component.  Both rely
    on it, and nothing checks it at run time.
    """
    if f.target != g.target:
        raise ValueError("pullback requires a shared target")
    X, Y = f.source, g.source
    N = X.truncation
    # per degree: the pairs as two columns (the levels of pr1 and pr2), and
    # over_x[n][x], the y with g(y) = f(x) in ascending order
    left: list[list[int]] = []
    right: list[list[int]] = []
    over_x: list[list[Sequence[int]]] = []
    offset: list[list[int]] = []
    rank: list[list[int]] = []
    for n in range(N + 1):
        fiber: dict[int, list[int]] = {}
        rank_n = []
        for y, b in enumerate(g.level[n]):
            ys = fiber.setdefault(b, [])
            rank_n.append(len(ys))
            ys.append(y)
        over_n = [fiber.get(b, ()) for b in f.level[n]]
        # x-major with each fiber ascending: already lexicographic
        offset_n, left_n, right_n = [], [], []
        for x, ys in enumerate(over_n):
            offset_n.append(len(right_n))
            left_n += [x] * len(ys)
            right_n += ys
        left.append(left_n)
        right.append(right_n)
        over_x.append(over_n)
        offset.append(offset_n)
        rank.append(rank_n)
    cells = [len(right_n) for right_n in right]

    def table(n: int, m: int, Xt: list[int], Yt: list[int], at_m: Sequence) -> list:
        # at_m[c], c the degree-m cell of (Xt[x], Yt[y]), for every degree-n pair (x, y)
        off, rk = offset[m], rank[m]
        ox = [off[v] for v in Xt]
        ry = [rk[v] for v in Yt]
        return [at_m[o + ry[y]] for o, ys in zip(ox, over_x[n]) for y in ys]

    def tables() -> tuple[list, list]:
        # Table entries are the shared ints of one range per degree, not a
        # fresh int per entry: the tables are most of a fiber product's memory.
        ids = [list(range(c)) for c in cells]
        face: list[list[list[int]]] = [[]]
        for n in range(1, N + 1):
            face.append(
                [table(n, n - 1, X.face[n][i], Y.face[n][i], ids[n - 1]) for i in range(n + 1)]
            )
        degeneracy = [
            [
                table(n, n + 1, X.degeneracy[n][i], Y.degeneracy[n][i], ids[n + 1])
                for i in range(n + 1)
            ]
            for n in range(N)
        ]
        return face, degeneracy

    def partition(_: TruncatedSSet) -> ComponentPartition:
        # union the vertex pairs d_0 p and d_1 p of each edge pair p, then
        # give each n-cell the class of its d_n face, as components._pi0 does
        ends: Sequence = ((), ())
        if N:
            vertices = range(cells[0])
            ends = [table(1, 0, X.face[1][i], Y.face[1][i], vertices) for i in (0, 1)]
        count, vertex_class = _vertex_classes(cells[0], *ends)
        class_of = [list(vertex_class)]
        for n in range(1, N + 1):
            class_of.append(table(n, n - 1, X.face[n][n], Y.face[n][n], class_of[-1]))
        return ComponentPartition(count, vertex_class, class_of)

    P = _FiberProductObject(N, cells, tables, partition)
    pr1, pr2 = SimplicialMap(P, X, left), SimplicialMap(P, Y, right)
    return FiberProduct(P, pr1, pr2, offset, rank)


def product(X: TruncatedSSet, Y: TruncatedSSet) -> FiberProduct:
    """Binary product, realized as the fiber product over the point."""
    if X.truncation != Y.truncation:
        raise ValueError("truncation mismatch in product")
    return pullback(terminal_map(X), terminal_map(Y))


@dataclass
class DiagonalData:
    fiber_product: FiberProduct
    delta: SimplicialMap
    # image[n] is the sorted list of fiber-product cells of the form (x, x)
    image: list[list[int]]


def diagonal(h: SimplicialMap) -> DiagonalData:
    """The relative diagonal A -> A x_B A of h: A -> B.

    h must be a simplicial map (it must pass validate_map): the diagonal is
    read off pullback(h, h), whose tables rely on it.  Nothing checks this at
    run time; given a map that fails naturality, the fiber product need not
    be a simplicial set and no error is raised.
    """
    fp = pullback(h, h)
    level = [
        [off + rk for off, rk in zip(fp.offset[n], fp.rank[n])]
        for n in range(h.source.truncation + 1)
    ]
    delta = SimplicialMap(h.source, fp.object, level)
    image = [list(row) for row in level]  # (x, x) increases with x
    return DiagonalData(fp, delta, image)
