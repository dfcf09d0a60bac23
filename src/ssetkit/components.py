"""Connected components and the two component-comparison checks.

Components are computed by undirected reachability along 1-simplices.  The
reflection of an object onto its component set is the discrete object on the
components; its unit sends every simplex to the class of its vertices, which
is well defined because an edge path connects any two vertices of a simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import TruncatedSSet, discrete_sset, vertex_table
from .limits import pullback
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
    uf = _UnionFind(X.cells[0])
    if X.truncation >= 1:
        for e in range(X.cells[1]):
            uf.union(X.face[1][0][e], X.face[1][1][e])
    vertex_class = [-1] * X.cells[0]
    count = 0
    for v in range(X.cells[0]):
        r = uf.find(v)
        if vertex_class[r] == -1:
            vertex_class[r] = count
            count += 1
        vertex_class[v] = vertex_class[r]
    vertices = vertex_table(X)
    class_of: list[list[int]] = []
    for n in range(X.truncation + 1):
        row = []
        for x in range(X.cells[n]):
            vs = vertices[n][x]
            c = vertex_class[vs[0]]
            # every vertex of a simplex is edge-connected to the others
            if any(vertex_class[v] != c for v in vs):
                raise ValueError(f"component class not constant on simplex {x} at degree {n}")
            row.append(c)
        class_of.append(row)
    return ComponentPartition(count, vertex_class, class_of)


def component_object(part: ComponentPartition, truncation: int) -> TruncatedSSet:
    """Discrete object on the component set."""
    return discrete_sset(part.count, truncation)


def component_unit(X: TruncatedSSet, part: ComponentPartition | None = None) -> SimplicialMap:
    """Unit X -> discrete(components), sending a simplex to its class."""
    part = part or pi0(X)
    return SimplicialMap(
        X, component_object(part, X.truncation), [list(r) for r in part.class_of]
    )


def pi0_map(
    f: SimplicialMap,
    part_src: ComponentPartition | None = None,
    part_tgt: ComponentPartition | None = None,
) -> list[int]:
    """Induced function on components."""
    part_src = part_src or pi0(f.source)
    part_tgt = part_tgt or pi0(f.target)
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

    The comparison sends x to the pair (h(x), class of x) in the materialized
    pullback of the unit of B along the induced map of component objects.
    Injectivity clashes are reported before surjectivity misses degree by
    degree; within a degree the least pair wins.
    """
    A, B = h.source, h.target
    N = A.truncation
    pa, pb = pi0(A), pi0(B)
    p0 = pi0_map(h, pa, pb) if pa.count else []
    unit_b = component_unit(B, pb)
    hi_h = SimplicialMap(
        component_object(pa, N),
        component_object(pb, N),
        [list(p0) for _ in range(N + 1)],
    )
    fp = pullback(unit_b, hi_h)
    witness = None
    misses = clashes = 0
    for n in range(N + 1):
        seen: dict[int, int] = {}
        clash_here = None
        for x in range(A.cells[n]):
            p = fp.index[n][(h.level[n][x], pa.class_of[n][x])]
            if p in seen:
                clashes += 1
                if clash_here is None:
                    clash_here = ComparisonClash(n, seen[p], x)
            else:
                seen[p] = x
        miss_here = None
        for p, (b, c) in enumerate(fp.pairs[n]):
            if p not in seen:
                misses += 1
                if miss_here is None:
                    miss_here = ComparisonMiss(n, b, c)
        if witness is None:
            witness = clash_here or miss_here
    stats = {
        "cells_source": sum(A.cells),
        "cells_pullback": sum(fp.object.cells),
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
    witness = None
    leaks = 0
    for c in range(pb.count):
        if not meets[c]:
            continue
        for n in range(B.truncation + 1):
            for y in range(B.cells[n]):
                if pb.class_of[n][y] == c and y not in image[n]:
                    leaks += 1
                    if witness is None:
                        witness = ComponentLeak(c, n, y)
    stats = {
        "components": pb.count,
        "meeting": sum(meets),
        "leaks": leaks,
        "cells_scanned": sum(B.cells),
    }
    return CheckReport("injection-cartesian", witness is None, witness, stats)
