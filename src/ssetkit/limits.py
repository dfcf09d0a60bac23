"""Finite limits: fiber products, products, diagonals.

A fiber product is stored as an honest object whose n-simplices are the
pairs (x, y) with f(x) = g(y), indexed in lexicographic order of (x, y); the
projections are simplicial maps.  Pair order is part of the contract so that
witnesses and serialized instances are reproducible.

Cells are found by arithmetic, not by search: the pairs are x-major, so the
index of (x, y) at degree n is offset[n][x] (the number of pairs before x)
plus rank[n][y] (the position of y in its fiber of g).  This is valid
because f and g are simplicial: d_i x and d_i y again lie over one base
cell, and so do s_i x and s_i y.

The object and its projections are a plain TruncatedSSet and plain
SimplicialMaps, but their face, degeneracy and level tables are lazy row
sequences (components._Rows): each degree is built by that arithmetic on
its first read and kept.  One rule builds both kinds of row at degree n:
the faces, into degree n - 1, and the degeneracies, into degree n + 1.
They compare equal to the lists of their rows, and copies and pickles of
them are plain lists.  pi0 is stored on the object when it is built, from
the pairs by the same arithmetic, and reads no table of the object: a
caller that reads only cell counts and components (the separability
checks on a diagonal) builds none of them.

pi0 visits the edge pairs, not the cells: it merges the vertex pairs of
each edge pair and stops there.  An n-cell (x, y) lies in the component of
its last vertex pair (a, a'), and the n-cells over that pair number
sum_b mf[a][b] * mg[a'][b], where mf[a][b] counts the n-cells of f's source
over b with last vertex a (mg likewise for g).  So a component's size in
each degree is counted per fiber from these counts, and only for the
components a caller asks about; the class of each n-cell is written out,
one degree at a time, only when that degree is read.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import accumulate, chain, compress

from ._record import Record
from .components import ComponentPartition, _Rows, _vertex_classes
from .core import TruncatedSSet, _check_budget, _operators, vertex_table
from .maps import SimplicialMap, terminal_map


class FiberProduct(Record):
    """The fiber product of f and g with its two projections.

    The cell of the pair (x, y) at degree n is offset[n][x] + rank[n][y],
    where offset[n][x] is the number of pairs (x', y) with x' < x and
    rank[n][y] the number of y' < y with g(y') = g(y); the pair of cell p
    is (pr1.level[n][p], pr2.level[n][p]).  The tables of object, pr1 and
    pr2 are built one degree at a time on first read (see the module
    docstring).
    """

    _fields = ("object", "pr1", "pr2", "offset", "rank")


def pullback(f: SimplicialMap, g: SimplicialMap) -> FiberProduct:
    """Fiber product of f and g over their shared target.

    f and g must be simplicial maps (they must pass validate_map): the
    tables and pi0 of the object are read off the pairs by offset + rank
    arithmetic (see the module docstring), without the check that each
    simplex lies in one component.  All of it relies on f and g being
    simplicial, and nothing checks that at run time.
    """
    if f.target != g.target:
        raise ValueError("pullback requires a shared target")
    X, Y = f.source, g.source
    N = X.truncation
    # per degree: over_x[n][x], the y with g(y) = f(x) in ascending order,
    # and offset[n][x], the number of pairs before x
    over_x: list[list[Sequence[int]]] = []
    offset: list[list[int]] = []
    rank: list[list[int]] = []
    cells: list[int] = []
    for n in range(N + 1):
        fiber: dict[int, list[int]] = {}
        rank_n = []
        for y, b in enumerate(g.level[n]):
            ys = fiber.setdefault(b, [])
            rank_n.append(len(ys))
            ys.append(y)
        over_n = [fiber.get(b, ()) for b in f.level[n]]
        offset_n = list(accumulate(map(len, over_n), initial=0))
        cells.append(offset_n.pop())
        over_x.append(over_n)
        offset.append(offset_n)
        rank.append(rank_n)
    _check_budget(sum(cells), "fiber product")

    # the pairs of degree n as two columns, x-major with each fiber
    # ascending: already lexicographic
    def left(n: int) -> list[int]:
        left_n: list[int] = []
        for x, ys in enumerate(over_x[n]):
            left_n += [x] * len(ys)
        return left_n

    def right(n: int) -> list[int]:
        return list(chain.from_iterable(over_x[n]))

    def table(n: int, m: int, Xt: list[int], Yt: list[int], at_m: Sequence) -> list:
        # at_m[c], c the degree-m cell of (Xt[x], Yt[y]), for every degree-n pair (x, y)
        off, rk = offset[m], rank[m]
        ox = [off[v] for v in Xt]
        ry = [rk[v] for v in Yt]
        return [at_m[o + ry[y]] for o, ys in zip(ox, over_x[n]) for y in ys]

    # Table entries are the shared ints of one range per degree, not a fresh
    # int per entry: the tables are most of a fiber product's memory.
    ids = _Rows(N + 1, lambda m: list(range(cells[m])))

    def rows(name: str, step: int, degrees: range) -> _Rows:
        # the object's faces or degeneracies, each degree built on its first read
        tx, ty = getattr(X, name), getattr(Y, name)

        def build(n: int) -> list[list[int]]:
            pairs = zip(tx[n], ty[n]) if n in degrees else ()  # face[0] stays empty
            return [table(n, n + step, x, y, ids[n + step]) for x, y in pairs]

        return _Rows(len(tx), build)

    def edge_ends() -> tuple[list[int], list[int]]:
        # the vertex pairs d_0 p and d_1 p of each edge pair p = (x, y), less
        # the pairs of two loops: their two ends are one vertex pair
        heads: list[int] = []
        tails: list[int] = []
        if not N:
            return heads, tails
        (x0, x1), (y0, y1) = X.face[1], Y.face[1]
        off, rk = offset[0], rank[0]
        r0, r1 = [rk[v] for v in y0], [rk[v] for v in y1]
        proper: dict[int, list[int]] = {}  # base edge -> the y over it that are not loops
        for x, (b, ys) in enumerate(zip(f.level[1], over_x[1])):
            if x0[x] == x1[x]:
                if b not in proper:
                    proper[b] = [y for y in ys if y0[y] != y1[y]]
                ys = proper[b]
            o0, o1 = off[x0[x]], off[x1[x]]
            heads += [o0 + r0[y] for y in ys]
            tails += [o1 + r1[y] for y in ys]
        return heads, tails

    def last_vertex_counts(h: SimplicialMap, n: int) -> tuple[list[int], list[dict[int, int]]]:
        # (kind, counts): counts[kind[a]][b] is the number of n-cells x of h's
        # source with h(x) = b and last vertex a.  Vertices with equal counts
        # share a kind: on a covering, all vertices over one base vertex do.
        at: list[dict[int, int]] = [{} for _ in range(h.source.cells[0])]
        for b, a in zip(h.level[n], vertex_table(h.source)[n][n]):
            at_a = at[a]
            at_a[b] = at_a.get(b, 0) + 1
        kinds: dict[frozenset, int] = {}
        kind = [kinds.setdefault(frozenset(at_a.items()), len(kinds)) for at_a in at]
        return kind, [dict(items) for items in kinds]

    # pi0: union the vertex pairs of each edge pair; an n-cell (x, y) has the
    # class of its last vertex pair, found as offset + rank
    count, vertex_class = _vertex_classes(cells[0], *edge_ends())

    def row(n: int) -> list[int]:
        if not n:
            return vertex_class
        return table(n, 0, vertex_table(X)[n][n], vertex_table(Y)[n][n], vertex_class)

    def count_cells(components: list[int]) -> dict[int, list[int]]:
        # The n-cells over the vertex pair (a, a') number sum_b mf[a][b] *
        # mg[a'][b], with mf[a][b] the n-cells of X over b with last vertex
        # a, and mg likewise for Y.  A component's n-cells are the sum over
        # its vertex pairs; pairs of the same two kinds are summed at once.
        keep = list(map(set(components).__contains__, vertex_class))
        xs, ys = list(compress(left(0), keep)), list(compress(right(0), keep))
        classes = list(compress(vertex_class, keep))
        vertices = Counter(classes)  # each vertex pair is one 0-cell
        out = {c: [vertices[c]] for c in components}
        for n in range(1, N + 1):
            kind_f, mf = last_vertex_counts(f, n)
            kind_g, mg = (kind_f, mf) if g is f else last_vertex_counts(g, n)
            total = dict.fromkeys(components, 0)
            kinds = zip(map(kind_f.__getitem__, xs), map(kind_g.__getitem__, ys), classes)
            for (i, j, c), times in Counter(kinds).items():
                at_j = mg[j]
                total[c] += times * sum(k * at_j.get(b, 0) for b, k in mf[i].items())
            for c, cells_c in out.items():
                cells_c.append(total[c])
        return out

    P = TruncatedSSet(N, cells, *(rows(*op) for op in _operators(N)))
    partition = ComponentPartition(count, vertex_class, _Rows(N + 1, row), count_cells)
    P.derived("pi0", lambda _: partition)
    pr1 = SimplicialMap(P, X, _Rows(N + 1, left))
    pr2 = SimplicialMap(P, Y, _Rows(N + 1, right))
    return FiberProduct(P, pr1, pr2, offset, rank)


def product(X: TruncatedSSet, Y: TruncatedSSet) -> FiberProduct:
    """Binary product, realized as the fiber product over the point."""
    if X.truncation != Y.truncation:
        raise ValueError("truncation mismatch in product")
    return pullback(terminal_map(X), terminal_map(Y))


class DiagonalData(Record):
    """The relative diagonal delta: A -> A x_B A of a map h: A -> B.

    fiber_product is pullback(h, h), and delta sends each cell x of A to
    the fiber-product cell (x, x).
    """

    _fields = ("fiber_product", "delta")

    @property
    def image(self) -> list[list[int]]:
        """image[n]: the fiber-product cells (x, x), ascending; delta's level."""
        return self.delta.level


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
    # (x, x) increases with x, so each level row is already ascending
    return DiagonalData(fp, SimplicialMap(h.source, fp.object, level))
