"""Connected components and the two component-comparison checks.

Components are computed by undirected reachability along 1-simplices.  The
reflection of an object onto its component set is the discrete object on the
components; its unit sends every simplex to the class of its vertices, which
is well defined because an edge path connects any two vertices of a simplex.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .core import TruncatedSSet
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

    def classes(self) -> tuple[int, list[int]]:
        """The number of classes and the class of each element.

        Classes are numbered by least member.  union keeps the lesser root,
        so each root is its class's least member and is numbered first.
        """
        label = [-1] * len(self.parent)
        count = 0
        for x in range(len(label)):
            r = self.find(x)
            if r == x:
                label[x] = count
                count += 1
            else:
                label[x] = label[r]
        return count, label


@dataclass
class ComponentPartition:
    """Partition of the vertices, extended degreewise to all simplices.

    Components are numbered by least vertex index.  class_of[n][x] is the
    component of every vertex of x.
    """

    count: int
    vertex_class: list[int]
    class_of: list[list[int]]


def pi0(X: TruncatedSSet) -> ComponentPartition:
    """The component partition of X, computed once per object and shared.

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
    for a, b in zip(heads, tails):
        uf.union(a, b)
    return uf.classes()


def _pi0(X: TruncatedSSet) -> ComponentPartition:
    edges = X.face[1] if X.truncation >= 1 else ([], [])
    count, vertex_class = _vertex_classes(X.cells[0], edges[0], edges[1])
    # Degree by degree: if every (n-1)-simplex has one class, x has one class
    # exactly when its faces d_n x (vertices 0..n-1) and d_0 x (vertex n)
    # agree, so this fails at the first simplex whose vertices disagree.
    class_of = [list(vertex_class)]
    for n in range(1, X.truncation + 1):
        prev = class_of[-1]
        row = [prev[y] for y in X.face[n][n]]
        last = [prev[y] for y in X.face[n][0]]
        if row != last:
            x = next(x for x, (a, b) in enumerate(zip(row, last)) if a != b)
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

    The comparison sends x to the pair (h(x), class of x).  The n-cells of
    the pullback are the pairs (b, c) with b an n-cell of B in the component
    that c maps to, in lexicographic order; they are enumerated from the two
    partitions.  Injectivity clashes are reported before surjectivity misses
    degree by degree; within a degree the least pair wins.
    """
    A, B = h.source, h.target
    N = A.truncation
    pa, pb = pi0(A), pi0(B)
    over: dict[int, list[int]] = {}  # component of B -> the classes of A over it
    for c, d in enumerate(pi0_map(h)):
        over.setdefault(d, []).append(c)
    witness = None
    misses = clashes = pairs = 0
    for n in range(N + 1):
        seen: dict[tuple[int, int], int] = {}
        clash_here = None
        for x, key in enumerate(zip(h.level[n], pa.class_of[n])):
            if key in seen:
                clashes += 1
                if clash_here is None:
                    clash_here = ComparisonClash(n, seen[key], x)
            else:
                seen[key] = x
        miss_here = None
        for b, d in enumerate(pb.class_of[n]):
            for c in over.get(d, ()):
                pairs += 1
                if (b, c) not in seen:
                    misses += 1
                    if miss_here is None:
                        miss_here = ComparisonMiss(n, b, c)
        if witness is None:
            witness = clash_here or miss_here
    stats = {
        "cells_source": sum(A.cells),
        "cells_pullback": pairs,
        "misses": misses,
        "clashes": clashes,
    }
    return CheckReport("trivial-covering", witness is None, witness, stats)


def injection_cartesian_check(m: SimplicialMap) -> CheckReport:
    """For injective m, is every target component meeting the image contained in it?

    Containment and meeting are checked at every stored degree.  The witness
    is the least (component, degree, cell) with the component meeting the
    image and the cell escaping it.
    """
    for row in m.level:
        if len(set(row)) != len(row):
            raise ValueError("injection_cartesian_check requires an injective map")
    B = m.target
    pb = pi0(B)
    image = [set(row) for row in m.level]
    meets = [False] * pb.count
    for n in range(B.truncation + 1):
        for y in image[n]:
            meets[pb.class_of[n][y]] = True
    # one scan in (degree, cell) order: the first leak found in a component
    # is its least, so the witness is the least over components
    witness = None
    leaks = 0
    for n in range(B.truncation + 1):
        for y, c in enumerate(pb.class_of[n]):
            if meets[c] and y not in image[n]:
                leaks += 1
                if witness is None or c < witness.component:
                    witness = ComponentLeak(c, n, y)
    stats = {
        "components": pb.count,
        "meeting": sum(meets),
        "leaks": leaks,
        "cells_scanned": sum(B.cells),
    }
    return CheckReport("injection-cartesian", witness is None, witness, stats)
