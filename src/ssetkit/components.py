"""Connected components and the two component-comparison checks.

Components are computed by undirected reachability along 1-simplices.  The
reflection of an object onto its component set is the discrete object on the
components; its unit sends every simplex to the class of its vertices, which
is well defined because an edge path connects any two vertices of a simplex.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence

from ._record import Record
from .core import TruncatedSSet, _first_difference
from .maps import SimplicialMap
from .report import CheckReport, ComparisonClash, ComparisonMiss, ComponentLeak


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b under the lesser root; False if already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def union_edges(self, heads: Sequence[int], tails: Sequence[int]) -> None:
        """union(heads[e], tails[e]) for every e, in one loop with no call per edge."""
        p = self.parent
        for a, b in zip(heads, tails):
            # find both roots, halving the paths, then keep the lesser root
            while (up := p[a]) != a:
                p[a] = a = p[up]
            while (up := p[b]) != b:
                p[b] = b = p[up]
            if a < b:
                p[b] = a
            elif b < a:
                p[a] = b

    def classes(self) -> tuple[int, list[int]]:
        """The number of classes and the class of each element.

        Classes are numbered by least member.  Every merge keeps the lesser
        root and path halving only moves a parent lower, so parent[x] <= x
        throughout: each root is its class's least member, and every other
        x finds its parent already numbered when the members are taken in
        ascending order.
        """
        label = [-1] * len(self.parent)
        count = 0
        for x, up in enumerate(self.parent):
            if up == x:
                label[x] = count
                count += 1
            else:
                label[x] = label[up]
        return count, label


class _Rows(Sequence):
    """A list of rows, each built when first read.

    rows[n] is row(n) on its first read and is kept from then on.  It reads
    like a list of lists: indexing, slices, iteration, len, and == with a
    list, in either order.  copy.copy, copy.deepcopy and pickle give the
    plain list of its rows.
    """

    def __init__(self, degrees: int, row: Callable[[int], list]):
        self._built: dict[int, list] = {}
        self._degrees, self._row = degrees, row

    def __len__(self) -> int:
        return self._degrees

    def __getitem__(self, n):
        if isinstance(n, slice):
            return [self[i] for i in range(self._degrees)[n]]
        n = range(self._degrees)[n]  # negative indices count back; IndexError past the end
        try:
            return self._built[n]
        except KeyError:
            row = self._built[n] = self._row(n)
            return row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, _Rows)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce_ex__(self, protocol):
        # copy.copy, copy.deepcopy and pickle: the plain list of the rows
        return list, (list(self),)


class ComponentPartition(Record):
    """Partition of the vertices, extended degreewise to all simplices.

    Components are numbered by least vertex index.  class_of[n][x] is the
    component of every vertex of x, and class_of[0] is vertex_class itself.
    class_of is a list of rows, or (for a fiber product) a _Rows that builds
    each row above degree 0 when it is first read.  sizes() counts the
    cells of a component per degree: with count_cells, which fiber products
    supply, only the components asked about are counted and no row is read;
    without it, every component is counted off class_of at once.  The counts
    are kept in a memo made on first use, which equality, repr and replace
    ignore.
    """

    _fields = ("count", "vertex_class", "class_of", "count_cells")
    # count_cells is a way of counting, not part of the partition
    _compare = ("count", "vertex_class", "class_of")
    _defaults = {"count_cells": None}

    def sizes(self, components: Iterable[int]) -> dict[int, list[int]]:
        """sizes(cs)[c][n]: the number of n-cells in component c, for each c in cs.

        Each component is counted once per partition, when first asked for.
        """
        known, wanted = vars(self).setdefault("_sizes", {}), set(components)
        todo = sorted(wanted - known.keys())
        if todo and self.count_cells is not None:
            known.update(self.count_cells(todo))
        elif todo:
            counts = [Counter(row) for row in self.class_of]
            known.update((c, [k[c] for k in counts]) for c in range(self.count))
        return {c: known[c] for c in wanted}


def pi0(X: TruncatedSSet) -> ComponentPartition:
    """The component partition of X, computed once per object and shared.

    pullback stores a fiber product's partition on it when it builds it.

    Raises ValueError if some simplex has vertices in two components, which
    the simplicial identities rule out on a validated object.
    """
    return X.derived("pi0", _pi0)


def _vertex_classes(
    vertices: int, heads: Sequence[int], tails: Sequence[int]
) -> tuple[int, list[int]]:
    """Components of the graph on range(vertices) with edges (heads[e], tails[e]).

    Returns the number of components and the component of each vertex;
    components are numbered by least vertex index.
    """
    uf = _UnionFind(vertices)
    uf.union_edges(heads, tails)
    return uf.classes()


def _pi0(X: TruncatedSSet) -> ComponentPartition:
    edges = X.face[1] if X.truncation >= 1 else ([], [])
    count, vertex_class = _vertex_classes(X.cells[0], edges[0], edges[1])
    # Degree by degree: if every (n-1)-simplex has one class, x has one class
    # exactly when its faces d_n x (vertices 0..n-1) and d_0 x (vertex n)
    # agree, so this fails at the first simplex whose vertices disagree.
    class_of = [vertex_class]
    for n in range(1, X.truncation + 1):
        prev = class_of[-1]
        row = [prev[y] for y in X.face[n][n]]
        last = [prev[y] for y in X.face[n][0]]
        if row != last:
            x = _first_difference(row, last)
            raise ValueError(f"component class not constant on simplex {x} at degree {n}")
        class_of.append(row)
    return ComponentPartition(count, vertex_class, class_of)


def pi0_map(f: SimplicialMap) -> list[int]:
    """Induced function on components."""
    part_src, part_tgt = pi0(f.source), pi0(f.target)
    out = [-1] * part_src.count
    for v in range(f.source.cells[0]):
        c = part_src.vertex_class[v]
        d = part_tgt.vertex_class[f.level[0][v]]
        if out[c] == -1:
            out[c] = d
        elif out[c] != d:
            raise ValueError(f"component image not well defined on class {c}")
    return out


def trivial_covering_check(h: SimplicialMap) -> CheckReport:
    """Is the comparison A -> B x_{pi0 B} pi0 A an isomorphism?

    h must be simplicial.  The comparison sends x to the pair (h(x), class
    of x).  The n-cells of the pullback are the pairs (b, c) with b an
    n-cell of B in the component that c maps to, in lexicographic order;
    they are counted, not visited: each component of B contributes its
    n-cells times the classes of A over it, so only the sizes of components
    with classes of A over them are asked for.  Clashes are the source cells
    whose pair an earlier cell already took.  Every pair taken is a pullback
    cell, so the misses are the pullback cells less the distinct pairs
    taken.  Injectivity clashes are reported before surjectivity misses
    degree by degree; within a degree the least pair wins.  Only the first
    degree with a clash or miss is scanned for the witness: its source
    cells up to the first clash, or else its cells of B up to the first one
    that takes fewer pairs than there are classes over its component.
    """
    A, B = h.source, h.target
    pa, pb = pi0(A), pi0(B)
    p0 = pi0_map(h)
    over = Counter(p0)  # component of B -> the number of classes of A over it
    size = pb.sizes(over)
    witness = None
    misses = clashes = pairs = 0
    for n in range(A.truncation + 1):
        taken = set(zip(h.level[n], pa.class_of[n]))
        pairs_n = sum(size[d][n] * k for d, k in over.items())
        pairs += pairs_n
        clashes += A.cells[n] - len(taken)
        misses += pairs_n - len(taken)
        if witness is None and A.cells[n] > len(taken):
            seen: dict[tuple[int, int], int] = {}
            for x, key in enumerate(zip(h.level[n], pa.class_of[n])):
                if key in seen:
                    witness = ComparisonClash(n, seen[key], x)
                    break
                seen[key] = x
        elif witness is None and pairs_n > len(taken):
            hits = Counter(b for b, _ in taken)
            b, d = next((b, d) for b, d in enumerate(pb.class_of[n]) if hits.get(b, 0) < over[d])
            c = next(c for c, e in enumerate(p0) if e == d and (b, c) not in taken)
            witness = ComparisonMiss(n, b, c)
    stats = {
        "cells_source": sum(A.cells),
        "cells_pullback": pairs,
        "misses": misses,
        "clashes": clashes,
    }
    return CheckReport("trivial-covering", witness is None, witness, stats)


def injection_cartesian_check(m: SimplicialMap) -> CheckReport:
    """For injective m, is every target component meeting the image contained in it?

    m must be simplicial.  Containment and meeting are checked at every
    stored degree, by counting: m sends each component of its source into
    one component of the target, injectively, so the image cells of a
    target component are the cells of the source components over it.  A
    target component meets the image when some source component lies over
    it, and it leaks its size less its image.  Only the sizes of meeting
    components are asked for.  The witness is the least (component, degree,
    cell) with the component meeting the image and the cell escaping it;
    only its degree is scanned, up to that cell.
    """
    image = [set(row) for row in m.level]
    if any(len(ys) != len(row) for ys, row in zip(image, m.level)):
        raise ValueError("injection_cartesian_check requires an injective map")
    B = m.target
    pa, pb = pi0(m.source), pi0(B)
    p0 = pi0_map(m)
    meeting = set(p0)
    size, own = pb.sizes(meeting), pa.sizes(range(pa.count))
    inside = {c: [0] * (B.truncation + 1) for c in meeting}
    for c_a, c in enumerate(p0):
        inside[c] = [i + k for i, k in zip(inside[c], own[c_a])]
    leaks = 0
    first = None  # the least (component, degree) with a leak
    for c in meeting:
        for n, out in enumerate(s - i for s, i in zip(size[c], inside[c])):
            if out:
                leaks += out
                if first is None or (c, n) < first:
                    first = (c, n)
    witness = None
    if first is not None:
        c, n = first
        y = next(y for y, d in enumerate(pb.class_of[n]) if d == c and y not in image[n])
        witness = ComponentLeak(c, n, y)
    stats = {
        "components": pb.count,
        "meeting": len(meeting),
        "leaks": leaks,
        "cells_scanned": sum(B.cells),
    }
    return CheckReport("injection-cartesian", witness is None, witness, stats)
