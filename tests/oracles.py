"""Independent reference implementations used to cross-check the library.

Everything here favors brute force over cleverness: plain loops, explicit
recursion, itertools.product.  Wherever the library made a nontrivial
algorithmic choice (greedy factorization order, union-find, backtracking)
the oracle deliberately makes a different one, so agreement is evidence.
"""

from __future__ import annotations

import itertools

from ssetkit.components import ComponentPartition, _UnionFind, pi0, pi0_map
from ssetkit.core import TruncatedSSet, discrete_sset
from ssetkit.groupoids import FiniteGroupoid
from ssetkit.limits import pullback
from ssetkit.maps import SimplicialMap
from ssetkit.report import (
    AmbiguousLift,
    CheckReport,
    ComparisonClash,
    ComparisonMiss,
    ComponentLeak,
    MissingHornFiller,
    MissingLift,
)


def ordinal_maps(m: int, n: int) -> list[tuple[int, ...]]:
    """All monotone maps [m] -> [n] as value tuples, by explicit recursion."""
    if m < 0 or n < 0:
        return []
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], lo: int) -> None:
        if len(prefix) == m + 1:
            out.append(tuple(prefix))
            return
        for v in range(lo, n + 1):
            grow(prefix + [v], v)

    grow([], 0)
    return out


def tuple_compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """f after g, both as value tuples."""
    return tuple(f[v] for v in g)


def apply_op(X: TruncatedSSet, alpha: tuple[int, ...], deg: int, x: int) -> int:
    """Replay X(alpha)(x) one elementary operator at a time.

    Strips the smallest missing value first and the leftmost plateau first,
    the opposite greedy order to apply_monotone's factorization, so agreement
    between the two is a real consistency check.
    """
    alpha = tuple(alpha)
    image = set(alpha)
    if len(image) < deg + 1:
        # alpha = delta_v . alpha' with v the least value skipped
        v = min(w for w in range(deg + 1) if w not in image)
        shrunk = tuple(a if a < v else a - 1 for a in alpha)
        return apply_op(X, shrunk, deg - 1, X.d(deg, v, x))
    for j in range(len(alpha) - 1):
        if alpha[j] == alpha[j + 1]:
            # alpha = alpha~ . sigma_j, so s_j comes last
            inner = apply_op(X, alpha[:j] + alpha[j + 1 :], deg, x)
            return X.s(len(alpha) - 2, j, inner)
    return x


def naive_vertex(X: TruncatedSSet, n: int, x: int, j: int) -> int:
    """Vertex j by deleting top indices down to j+1, then d_0 j times."""
    for i in range(n, j, -1):
        x = X.d(i, i, x)
    for i in range(j, 0, -1):
        x = X.d(i, 0, x)
    return x


def ez_peel_greatest(X: TruncatedSSet, n: int, x: int) -> tuple[tuple[int, ...], int, int]:
    """Eilenberg-Zilber form peeling the greatest degeneracy index first.

    The normal form is unique, so this must agree with the library's
    least-index peeling.
    """
    phi = list(range(n + 1))
    deg, y = n, x
    while deg > 0:
        for i in range(deg - 1, -1, -1):
            base = X.d(deg, i, y)
            if X.s(deg - 1, i, base) == y:
                phi = [t if t <= i else t - 1 for t in phi]
                deg, y = deg - 1, base
                break
        else:
            break
    return tuple(phi), deg, y


def bfs_components(X: TruncatedSSet) -> list[set[int]]:
    """Vertex components by breadth-first search along edges.

    Returned in order of least member, mirroring the library's numbering.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(X.cells[0])}
    if X.truncation >= 1:
        for e in range(X.cells[1]):
            a, b = X.d(1, 0, e), X.d(1, 1, e)
            adj[a].add(b)
            adj[b].add(a)
    seen: set[int] = set()
    comps: list[set[int]] = []
    for v in range(X.cells[0]):
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for w in frontier:
                for u in adj[w]:
                    if u not in comp:
                        comp.add(u)
                        nxt.append(u)
            frontier = nxt
        seen |= comp
        comps.append(comp)
    return comps


def component_of_cell(X: TruncatedSSet, comps: list[set[int]], n: int, x: int) -> int:
    v = naive_vertex(X, n, x, 0)
    for c, comp in enumerate(comps):
        if v in comp:
            return c
    raise ValueError("vertex not in any component")


def naive_separable_lifting(h: SimplicialMap):
    """Plain quadruple scan for two lifts sharing a vertex.

    Returns (verdict, first violation as (n, j, u, a, x1, x2) or None).
    """
    A = h.source
    for n in range(A.truncation + 1):
        for j in range(n + 1):
            for x1 in range(A.cells[n]):
                for x2 in range(x1 + 1, A.cells[n]):
                    if h.level[n][x1] != h.level[n][x2]:
                        continue
                    if naive_vertex(A, n, x1, j) == naive_vertex(A, n, x2, j):
                        u = h.level[n][x1]
                        a = naive_vertex(A, n, x1, j)
                        return False, (n, j, u, a, x1, x2)
    return True, None


def naive_covering(h: SimplicialMap):
    """Plain scan over anchored squares, counting lifts by full search.

    Returns (verdict, first violation) where the violation is
    ("missing", n, j, u, a) or ("ambiguous", n, j, u, a, x1, x2).
    """
    A, B = h.source, h.target
    for n in range(A.truncation + 1):
        for j in range(n + 1):
            for u in range(B.cells[n]):
                for a in range(A.cells[0]):
                    if h.level[0][a] != naive_vertex(B, n, u, j):
                        continue
                    lifts = [
                        x
                        for x in range(A.cells[n])
                        if h.level[n][x] == u and naive_vertex(A, n, x, j) == a
                    ]
                    if not lifts:
                        return False, ("missing", n, j, u, a)
                    if len(lifts) > 1:
                        return False, ("ambiguous", n, j, u, a, lifts[0], lifts[1])
    return True, None


def naive_kan(h: SimplicialMap, bound: int | None = None):
    """Horn filling by exhaustive family enumeration with itertools.

    Returns (verdict, first unfillable horn as (n, k, u, faces) or None)
    in the same (degree, horn, base, family) order as the library.
    """
    A, B = h.source, h.target
    N = A.truncation
    bound = N if bound is None else min(bound, N)
    for n in range(1, bound + 1):
        for k in range(n + 1):
            slots = [i for i in range(n + 1) if i != k]
            for u in range(B.cells[n]):
                cands = [
                    [
                        y
                        for y in range(A.cells[n - 1])
                        if h.level[n - 1][y] == B.d(n, i, u)
                    ]
                    for i in slots
                ]
                for fam in itertools.product(*cands):
                    by_slot = dict(zip(slots, fam))
                    ok = True
                    for ai, i in enumerate(slots):
                        for j in slots[ai + 1 :]:
                            if n >= 2 and A.d(n - 1, i, by_slot[j]) != A.d(
                                n - 1, j - 1, by_slot[i]
                            ):
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        continue
                    filled = any(
                        h.level[n][x] == u
                        and all(A.d(n, i, x) == by_slot[i] for i in slots)
                        for x in range(A.cells[n])
                    )
                    if not filled:
                        return False, (n, k, u, tuple(zip(slots, fam)))
    return True, None


def naive_trivial_covering(h: SimplicialMap) -> bool:
    """Is x -> (h(x), component of x) a degreewise bijection onto the pairs?

    Components come from the BFS oracle; pairs are recomputed from scratch.
    """
    A, B = h.source, h.target
    ca, cb = bfs_components(A), bfs_components(B)
    # induced function on components, via any vertex
    p0 = {}
    for c, comp in enumerate(ca):
        images = {component_of_cell(B, cb, 0, h.level[0][v]) for v in comp}
        if len(images) != 1:
            return False
        p0[c] = images.pop()
    for n in range(A.truncation + 1):
        pairs = {
            (b, c)
            for b in range(B.cells[n])
            for c in range(len(ca))
            if component_of_cell(B, cb, n, b) == p0[c]
        }
        seen = set()
        for x in range(A.cells[n]):
            key = (h.level[n][x], component_of_cell(A, ca, n, x))
            if key in seen:
                return False
            seen.add(key)
        if seen != pairs:
            return False
    return True


def naive_injection_cartesian(m: SimplicialMap):
    """Containment of image-meeting components, by plain scans.

    Returns (verdict, first leak as (component, degree, cell) or None) with
    components in least-vertex order.
    """
    B = m.target
    comps = bfs_components(B)
    image = [set(row) for row in m.level]
    meets = set()
    for n in range(B.truncation + 1):
        for y in image[n]:
            meets.add(component_of_cell(B, comps, n, y))
    for c in range(len(comps)):
        if c not in meets:
            continue
        for n in range(B.truncation + 1):
            for y in range(B.cells[n]):
                if component_of_cell(B, comps, n, y) == c and y not in image[n]:
                    return False, (c, n, y)
    return True, None


def all_simplicial_maps(X: TruncatedSSet, Y: TruncatedSSet) -> list[list[list[int]]]:
    """Every simplicial map X -> Y as a level table, by backtracking.

    Images are chosen degree by degree; face commutation prunes candidates
    and degeneracy commutation is enforced once a degree is complete.
    """
    if X.truncation != Y.truncation:
        raise ValueError("truncations differ")
    N = X.truncation
    results: list[list[list[int]]] = []
    level: list[list[int]] = [[-1] * X.cells[n] for n in range(N + 1)]

    def assign(n: int, x: int) -> None:
        if x == X.cells[n]:
            # degeneracy squares from degree n-1 into n
            if n >= 1:
                for i in range(n):
                    for w in range(X.cells[n - 1]):
                        if Y.s(n - 1, i, level[n - 1][w]) != level[n][X.s(n - 1, i, w)]:
                            return
            if n == N:
                results.append([list(r) for r in level])
            else:
                assign(n + 1, 0)
            return
        for y in range(Y.cells[n]):
            if n >= 1 and any(
                Y.d(n, i, y) != level[n - 1][X.d(n, i, x)] for i in range(n + 1)
            ):
                continue
            level[n][x] = y
            assign(n, x + 1)
        level[n][x] = -1

    assign(0, 0)
    return results


def universal_property_holds(f: SimplicialMap, g: SimplicialMap, fp, Z: TruncatedSSet) -> bool:
    """Exhaustive pullback universal property over the test object Z.

    Enumerates every commuting pair (u: Z -> X1, v: Z -> X2) and every map
    w: Z -> P, and demands that w |-> (pr1 w, pr2 w) be a bijection from the
    latter onto the former.
    """
    us = all_simplicial_maps(Z, f.source)
    vs = all_simplicial_maps(Z, g.source)
    commuting = set()
    for u in us:
        fu = [
            tuple(f.level[n][u[n][z]] for z in range(Z.cells[n]))
            for n in range(Z.truncation + 1)
        ]
        for v in vs:
            gv = [
                tuple(g.level[n][v[n][z]] for z in range(Z.cells[n]))
                for n in range(Z.truncation + 1)
            ]
            if fu == gv:
                commuting.add(
                    (
                        tuple(tuple(r) for r in u),
                        tuple(tuple(r) for r in v),
                    )
                )
    seen = set()
    for w in all_simplicial_maps(Z, fp.object):
        pr1w = tuple(
            tuple(fp.pr1.level[n][w[n][z]] for z in range(Z.cells[n]))
            for n in range(Z.truncation + 1)
        )
        pr2w = tuple(
            tuple(fp.pr2.level[n][w[n][z]] for z in range(Z.cells[n]))
            for n in range(Z.truncation + 1)
        )
        key = (pr1w, pr2w)
        if key in seen:
            return False  # mediating map not unique
        seen.add(key)
    return seen == commuting


def raw_nerve_counts(
    n_objects: int,
    source: list[int],
    target: list[int],
    truncation: int,
) -> list[int]:
    """Cell counts of a category nerve as composable-string counts.

    Counts ALL strings of length n (identities included), which equals the
    total number of n-cells, degenerate ones included.  Arrows are given by
    parallel source/target lists and are assumed to include the identities.
    """
    counts = [n_objects]
    strings: list[tuple[int, ...]] = [(a,) for a in range(len(source))]
    counts.append(len(strings))
    for _ in range(2, truncation + 1):
        strings = [
            s + (a,)
            for s in strings
            for a in range(len(source))
            if source[a] == target[s[-1]]
        ]
        counts.append(len(strings))
    return counts[: truncation + 1]


# Reference copies of earlier library implementations.  The library now
# derives pi0 degree by degree, enumerates the trivial-covering pairs without
# building the pullback, and scans for component leaks once; these keep the
# direct versions (vertex tuples, a materialized pullback, one scan per
# component), uncached, so the tests can require identical reports.


def reference_vertex_table(X: TruncatedSSet) -> list[list[tuple[int, ...]]]:
    """Vertex tuples bottom-up, recomputed on every call."""
    table: list[list[tuple[int, ...]]] = [[(v,) for v in range(X.cells[0])]]
    for n in range(1, X.truncation + 1):
        last, first = X.face[n][n], X.face[n][0]
        prev = table[n - 1]
        table.append(
            [prev[last[x]] + (prev[first[x]][n - 1],) for x in range(X.cells[n])]
        )
    return table


def reference_pi0(X: TruncatedSSet) -> ComponentPartition:
    """Components by union-find; a simplex takes the class of its vertex tuple."""
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
    vertices = reference_vertex_table(X)
    class_of: list[list[int]] = []
    for n in range(X.truncation + 1):
        row = []
        for x in range(X.cells[n]):
            vs = vertices[n][x]
            c = vertex_class[vs[0]]
            if any(vertex_class[v] != c for v in vs):
                raise ValueError(f"component class not constant on simplex {x} at degree {n}")
            row.append(c)
        class_of.append(row)
    return ComponentPartition(count, vertex_class, class_of)


def reference_trivial_covering_check(h: SimplicialMap) -> CheckReport:
    """The comparison A -> B x_{pi0 B} pi0 A against a materialized pullback."""
    A, B = h.source, h.target
    N = A.truncation
    pa, pb = reference_pi0(A), reference_pi0(B)
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


def reference_injection_cartesian_check(m: SimplicialMap) -> CheckReport:
    """Component containment, rescanning the target once per meeting component."""
    for row in m.level:
        if len(set(row)) != len(row):
            raise ValueError("injection_cartesian_check requires an injective map")
    B = m.target
    pb = reference_pi0(B)
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


# The library now fills fiber-product tables by offset + rank arithmetic and
# draws horn candidates from face-indexed fibers; these keep the earlier
# versions (a tuple-keyed index dict per degree, sorted pairs; a full scan of
# each slot's fiber), so the tests can require identical results.


def reference_pullback(f: SimplicialMap, g: SimplicialMap):
    """(object, pairs, index, pr1, pr2) of the fiber product, via index dicts."""
    if f.target != g.target:
        raise ValueError("pullback requires a shared target")
    X, Y = f.source, g.source
    N = X.truncation
    pairs: list[list[tuple[int, int]]] = []
    index: list[dict[tuple[int, int], int]] = []
    for n in range(N + 1):
        by_image: dict[int, list[int]] = {}
        for y in range(Y.cells[n]):
            by_image.setdefault(g.level[n][y], []).append(y)
        at_n = [
            (x, y)
            for x in range(X.cells[n])
            for y in by_image.get(f.level[n][x], ())
        ]
        at_n.sort()
        pairs.append(at_n)
        index.append({p: i for i, p in enumerate(at_n)})
    face: list[list[list[int]]] = [[]]
    for n in range(1, N + 1):
        face.append(
            [
                [index[n - 1][(X.face[n][i][x], Y.face[n][i][y])] for (x, y) in pairs[n]]
                for i in range(n + 1)
            ]
        )
    degeneracy = [
        [
            [index[n + 1][(X.degeneracy[n][i][x], Y.degeneracy[n][i][y])] for (x, y) in pairs[n]]
            for i in range(n + 1)
        ]
        for n in range(N)
    ]
    P = TruncatedSSet(N, [len(p) for p in pairs], face, degeneracy)
    pr1 = SimplicialMap(P, X, [[x for (x, _) in pairs[n]] for n in range(N + 1)])
    pr2 = SimplicialMap(P, Y, [[y for (_, y) in pairs[n]] for n in range(N + 1)])
    return P, pairs, index, pr1, pr2


def reference_diagonal_level(h: SimplicialMap) -> list[list[int]]:
    """The relative diagonal's level table, looked up in the index dicts."""
    index = reference_pullback(h, h)[2]
    return [
        [index[n][(x, x)] for x in range(h.source.cells[n])]
        for n in range(h.source.truncation + 1)
    ]


def _reference_compatible_families(cands, slots, face_row):
    chosen: list[int] = []

    def rec(p: int):
        if p == len(slots):
            yield tuple(chosen)
            return
        jp = slots[p]
        for y in cands[p]:
            if all(
                face_row[slots[q]][y] == face_row[jp - 1][chosen[q]] for q in range(p)
            ):
                chosen.append(y)
                yield from rec(p + 1)
                chosen.pop()

    yield from rec(0)


def reference_kan_check(h: SimplicialMap, bound: int | None = None) -> CheckReport:
    """Horn filling, trying every candidate of every slot's fiber."""
    A, B = h.source, h.target
    N = A.truncation
    bound = N if bound is None else min(bound, N)
    fibers = []
    for n in range(N + 1):
        at_n: dict[int, list[int]] = {}
        for x in range(A.cells[n]):
            at_n.setdefault(h.level[n][x], []).append(x)
        fibers.append(at_n)
    witness = None
    horns = missing = 0
    for n in range(1, bound + 1):
        face_tuple = [
            tuple(A.face[n][i][x] for i in range(n + 1)) for x in range(A.cells[n])
        ]
        face_row = A.face[n - 1] if n >= 2 else []
        for k in range(n + 1):
            slots = [i for i in range(n + 1) if i != k]
            for u in range(B.cells[n]):
                cands = [fibers[n - 1].get(B.face[n][i][u], []) for i in slots]
                if any(not c for c in cands):
                    continue
                filled = {
                    tuple(face_tuple[x][i] for i in slots) for x in fibers[n].get(u, ())
                }
                for fam in _reference_compatible_families(cands, slots, face_row):
                    horns += 1
                    if fam not in filled:
                        missing += 1
                        if witness is None:
                            witness = MissingHornFiller(n, k, u, tuple(zip(slots, fam)))
    stats = {"horns": horns, "missing": missing}
    return CheckReport("kan", witness is None, witness, stats)


# The library now builds the lift buckets of covering_check and
# separable_via_lifting in one helper, keyed by the int u * |A_0| + a; these
# keep the earlier tuple-keyed loops, so the tests can require identical
# reports.


def reference_covering_check(h: SimplicialMap) -> CheckReport:
    """Unique vertex-anchored lifts, bucketed by (base cell, vertex) tuples."""
    A, B = h.source, h.target
    N = A.truncation
    va, vb = reference_vertex_table(A), reference_vertex_table(B)
    anchors: dict[int, list[int]] = {}
    for a in range(A.cells[0]):
        anchors.setdefault(h.level[0][a], []).append(a)
    witness = None
    squares = missing = ambiguous = 0
    for n in range(N + 1):
        for j in range(n + 1):
            buckets: dict[tuple[int, int], list[int]] = {}
            for x in range(A.cells[n]):
                buckets.setdefault((h.level[n][x], va[n][x][j]), []).append(x)
            for u in range(B.cells[n]):
                for a in anchors.get(vb[n][u][j], ()):
                    squares += 1
                    lifts = buckets.get((u, a), ())
                    if not lifts:
                        missing += 1
                        if witness is None:
                            witness = MissingLift(n, j, u, a)
                    elif len(lifts) > 1:
                        ambiguous += 1
                        if witness is None:
                            witness = AmbiguousLift(n, j, u, a, lifts[0], lifts[1])
    stats = {"squares": squares, "missing": missing, "ambiguous": ambiguous}
    return CheckReport("covering", witness is None, witness, stats)


def reference_separable_via_lifting(h: SimplicialMap) -> CheckReport:
    """Unique vertex-anchored lifts; the witness minimizes (first, second, u, a)."""
    A = h.source
    N = A.truncation
    va = reference_vertex_table(A)
    witness = None
    squares = ambiguous = 0
    for n in range(N + 1):
        for j in range(n + 1):
            buckets: dict[tuple[int, int], list[int]] = {}
            for x in range(A.cells[n]):
                buckets.setdefault((h.level[n][x], va[n][x][j]), []).append(x)
            squares += len(buckets)
            best = None
            for (u, a), xs in buckets.items():
                if len(xs) > 1:
                    ambiguous += 1
                    pair = (xs[0], xs[1], u, a)
                    if best is None or pair < best:
                        best = pair
            if witness is None and best is not None:
                witness = AmbiguousLift(n, j, best[2], best[3], best[0], best[1])
    stats = {"squares": squares, "ambiguous": ambiguous}
    return CheckReport("separable-lifting", witness is None, witness, stats)


# Tools the tests use that the library itself does not need: the action of
# monotone maps on an object, the degeneracy closure that raises the
# truncation of an object or a map, a groupoid-law checker, the discrete
# groupoid, and the component object and unit of an object.


def apply_epi(X: TruncatedSSet, phi: tuple[int, ...], deg: int, y: int) -> int:
    """Evaluate X(phi)(y) for a monotone surjection phi: [p] ->> [deg].

    Resolves phi into elementary degeneracies against the stored tables; the
    result degree p must not exceed the truncation.
    """
    p = len(phi) - 1
    if p == deg:
        return y
    t = max(t for t in range(p) if phi[t] == phi[t + 1])
    z = apply_epi(X, phi[: t + 1] + phi[t + 2 :], deg, y)
    return X.degeneracy[p - 1][t][z]


def apply_monotone(X: TruncatedSSet, alpha: tuple[int, ...], deg: int, x: int) -> int:
    """Evaluate X(alpha)(x) for any monotone alpha: [p] -> [deg], x in X_deg.

    Factors alpha as a surjection after an injection and replays the
    elementary operators against the stored tables.
    """
    image = sorted(set(alpha))
    z, cur = x, deg
    for v in range(deg, -1, -1):
        if v not in image:
            z = X.face[cur][v][z]
            cur -= 1
    rank = {v: r for r, v in enumerate(image)}
    return apply_epi(X, tuple(rank[a] for a in alpha), cur, z)


def closure_step(X: TruncatedSSet) -> tuple[TruncatedSSet, list[tuple[int, int]]]:
    """Extend by one degree with formal degeneracies only.

    Returns the extended object and, per new top cell, a presentation
    (t, parent) with the cell equal to s_t(parent).
    """
    N = X.truncation
    M = N + 1
    # Canonical keys (m, y, phi): y nondegenerate of degree m, phi: [M] ->> [m].
    keys: set[tuple[int, int, tuple[int, ...]]] = set()
    new_degeneracy_row = [[0] * X.cells[N] for _ in range(N + 1)]
    key_of: dict[tuple[int, int], tuple[int, int, tuple[int, ...]]] = {}
    for x in range(X.cells[N]):
        phi, m, y = X.ez(N, x)
        for i in range(N + 1):
            # s_i(x) = X(phi o sigma_i)(y)
            lifted = phi[: i + 1] + phi[i:]
            key = (m, y, lifted)
            keys.add(key)
            key_of[(i, x)] = key
    ordered = sorted(keys)
    index = {k: c for c, k in enumerate(ordered)}
    for (i, x), key in key_of.items():
        new_degeneracy_row[i][x] = index[key]

    parents: list[tuple[int, int]] = []
    new_face_row = [[0] * len(ordered) for _ in range(M + 1)]
    for c, (m, y, phi) in enumerate(ordered):
        t = max(t for t in range(M) if phi[t] == phi[t + 1])
        parent = apply_epi(X, phi[: t + 1] + phi[t + 2 :], m, y)
        parents.append((t, parent))
        for i in range(M + 1):
            alpha = phi[:i] + phi[i + 1 :]
            new_face_row[i][c] = apply_monotone(X, alpha, m, y)

    ext = TruncatedSSet(
        truncation=M,
        cells=X.cells + [len(ordered)],
        face=[[r[:] for r in rows] for rows in X.face] + [new_face_row],
        degeneracy=[[r[:] for r in rows] for rows in X.degeneracy]
        + [new_degeneracy_row],
    )
    return ext, parents


def degeneracy_closure(X: TruncatedSSet, truncation: int) -> TruncatedSSet:
    """Raise the truncation, adding only degenerate cells."""
    if truncation < X.truncation:
        raise ValueError("cannot lower a truncation by closure")
    out = X
    while out.truncation < truncation:
        out, _ = closure_step(out)
    return out


def extend_map(f: SimplicialMap, truncation: int) -> SimplicialMap:
    """Raise the truncation of a map by degeneracy closure on both ends.

    Each new source cell is s_t(parent) for a canonical presentation, so its
    image is forced by naturality.
    """
    if truncation < f.source.truncation:
        raise ValueError("cannot lower a truncation by closure")
    src, tgt = f.source, f.target
    level = [list(r) for r in f.level]
    while src.truncation < truncation:
        prev = src.truncation
        tgt, _ = closure_step(tgt)
        src, parents = closure_step(src)
        level.append(
            [tgt.degeneracy[prev][t][level[prev][parent]] for (t, parent) in parents]
        )
    return SimplicialMap(src, tgt, level)


def check_groupoid(G: FiniteGroupoid) -> None:
    """Raise ValueError on the first violated groupoid law."""
    m = G.n_arrows
    for o in range(G.n_objects):
        e = G.identity[o]
        if G.source[e] != o or G.target[e] != o:
            raise ValueError(f"identity of object {o} has wrong endpoints")
    for g in range(m):
        for f in range(m):
            defined = (g, f) in G.compose
            if defined != (G.target[f] == G.source[g]):
                raise ValueError(f"composability mismatch for ({g}, {f})")
            if defined:
                c = G.compose[(g, f)]
                if G.source[c] != G.source[f] or G.target[c] != G.target[g]:
                    raise ValueError(f"composite of ({g}, {f}) has wrong endpoints")
    for f in range(m):
        if G.compose[(f, G.identity[G.source[f]])] != f:
            raise ValueError(f"right identity fails for {f}")
        if G.compose[(G.identity[G.target[f]], f)] != f:
            raise ValueError(f"left identity fails for {f}")
        inv = G.inverse[f]
        if G.source[inv] != G.target[f] or G.target[inv] != G.source[f]:
            raise ValueError(f"inverse of {f} has wrong endpoints")
        if G.compose[(inv, f)] != G.identity[G.source[f]]:
            raise ValueError(f"inverse law fails for {f}")
        if G.compose[(f, inv)] != G.identity[G.target[f]]:
            raise ValueError(f"inverse law fails for {f}")
    for h in range(m):
        for g in range(m):
            if G.target[g] != G.source[h]:
                continue
            hg = G.compose[(h, g)]
            for f in range(m):
                if G.target[f] != G.source[g]:
                    continue
                if G.compose[(hg, f)] != G.compose[(h, G.compose[(g, f)])]:
                    raise ValueError(f"associativity fails at ({h}, {g}, {f})")


def discrete_groupoid(m: int) -> FiniteGroupoid:
    """m objects, identities only."""
    comp = {(o, o): o for o in range(m)}
    return FiniteGroupoid(m, list(range(m)), list(range(m)), comp, list(range(m)), list(range(m)))


def component_object(part: ComponentPartition, truncation: int) -> TruncatedSSet:
    """Discrete object on the component set."""
    return discrete_sset(part.count, truncation)


def component_unit(X: TruncatedSSet, part: ComponentPartition | None = None) -> SimplicialMap:
    """Unit X -> discrete(components), sending a simplex to its class."""
    part = part or pi0(X)
    return SimplicialMap(
        X, component_object(part, X.truncation), [list(r) for r in part.class_of]
    )
