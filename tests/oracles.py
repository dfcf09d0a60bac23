"""Independent reference implementations used to cross-check the library.

Everything here favors brute force over cleverness: plain loops, explicit
recursion, itertools.product.  Wherever the library made a nontrivial
algorithmic choice (greedy factorization order, union-find, backtracking)
the oracle deliberately makes a different one, so agreement is evidence.
"""

from __future__ import annotations

import itertools
import random

from ssetkit.components import ComponentPartition, pi0
from ssetkit.core import TruncatedSSet, ValidationFailure, discrete_sset
from ssetkit.groupoids import FiniteGroupoid, cyclic_group_groupoid, nerve
from ssetkit.limits import FiberProduct, product
from ssetkit.maps import SimplicialMap, cyclic_cover_projection, terminal_map
from ssetkit.report import (
    AmbiguousLift,
    CheckReport,
    ComparisonClash,
    ComparisonMiss,
    ComponentLeak,
    MissingHornFiller,
    MissingLift,
)
from ssetkit.standard import build_standard, parse_spec


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


def delta_op(i: int, p: int) -> tuple[int, ...]:
    """The coface injection [p-1] -> [p] skipping i."""
    return tuple(t if t < i else t + 1 for t in range(p))


def sigma_op(i: int, p: int) -> tuple[int, ...]:
    """The codegeneracy surjection [p+1] -> [p] hitting i twice."""
    return tuple(t if t <= i else t - 1 for t in range(p + 2))


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
        return apply_op(X, shrunk, deg - 1, X.face[deg][v][x])
    for j in range(len(alpha) - 1):
        if alpha[j] == alpha[j + 1]:
            # alpha = alpha~ . sigma_j, so s_j comes last
            inner = apply_op(X, alpha[:j] + alpha[j + 1 :], deg, x)
            return X.degeneracy[len(alpha) - 2][j][inner]
    return x


def naive_vertex(X: TruncatedSSet, n: int, x: int, j: int) -> int:
    """Vertex j by deleting top indices down to j+1, then d_0 j times."""
    face = X.face
    for i in range(n, j, -1):
        x = face[i][i][x]
    for i in range(j, 0, -1):
        x = face[i][0][x]
    return x


def ez_peel_greatest(X: TruncatedSSet, n: int, x: int) -> tuple[tuple[int, ...], int, int]:
    """Eilenberg-Zilber normal form (phi, m, y) of x, peeling the greatest index first.

    y is a nondegenerate m-simplex and phi a monotone surjection [n] ->> [m]
    with x = X(phi)(y).  The normal form is unique, so any peeling order
    gives it; the tests check it against a brute-force search.
    """
    phi = list(range(n + 1))
    deg, y = n, x
    while deg > 0:
        for i in range(deg - 1, -1, -1):
            base = X.face[deg][i][y]
            if X.degeneracy[deg - 1][i][base] == y:
                phi = [t if t <= i else t - 1 for t in phi]
                deg, y = deg - 1, base
                break
        else:
            break
    return tuple(phi), deg, y


def _naive_shape_failure(X: TruncatedSSet) -> ValidationFailure | None:
    """Table lengths, then every entry's range, one entry at a time."""

    def bad(degree: int, reason: str, **where) -> ValidationFailure:
        return ValidationFailure("shape", degree, {"reason": reason, **where})

    N = X.truncation
    if N < 0:
        return bad(-1, "negative truncation")
    if len(X.cells) != N + 1 or any(c < 0 for c in X.cells):
        return bad(-1, "bad cell counts")
    if len(X.face) != N + 1:
        return bad(-1, "face table length")
    if len(X.degeneracy) != N:
        return bad(-1, "degeneracy table length")
    for table, degrees, step, name in (
        (X.face, range(1, N + 1), -1, "face"),
        (X.degeneracy, range(N), 1, "degeneracy"),
    ):
        for n in degrees:
            if len(table[n]) != n + 1:
                return bad(n, f"{name} row count")
            for i in range(n + 1):
                if len(table[n][i]) != X.cells[n]:
                    return bad(n, f"{name} row length", i=i)
                for x in range(X.cells[n]):
                    if not 0 <= table[n][i][x] < X.cells[n + step]:
                        return bad(n, f"{name} out of range", i=i)
    return None


def naive_identity_failure(X: TruncatedSSet) -> ValidationFailure | None:
    """The first failure validate(X) reports, one law instance at a time.

    The shape comes first.  Then the laws dd (d_i d_j = d_{j-1} d_i, i < j)
    and ss (s_i s_j = s_{j+1} s_i, i <= j) are scanned in (n, j, i, x)
    order, and ds (d_i s_j) in (n, j, x, i) order: x before i.
    """
    shape = _naive_shape_failure(X)
    if shape is not None:
        return shape
    N = X.truncation
    fc, dg = X.face, X.degeneracy

    def failure(n: int, law: str, i: int, j: int, x: int) -> ValidationFailure:
        return ValidationFailure("identity", n, {"law": law, "i": i, "j": j, "simplex": x})

    for n in range(2, N + 1):
        for j in range(n + 1):
            for i in range(j):
                for x in range(X.cells[n]):
                    if fc[n - 1][i][fc[n][j][x]] != fc[n - 1][j - 1][fc[n][i][x]]:
                        return failure(n, "dd", i, j, x)
    for n in range(N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                for x in range(X.cells[n]):
                    if dg[n + 1][i][dg[n][j][x]] != dg[n + 1][j + 1][dg[n][i][x]]:
                        return failure(n, "ss", i, j, x)
    for n in range(N):
        for j in range(n + 1):
            for x in range(X.cells[n]):
                for i in range(n + 2):
                    if i < j:
                        want = dg[n - 1][j - 1][fc[n][i][x]]
                    elif i > j + 1:
                        want = dg[n - 1][j][fc[n][i - 1][x]]
                    else:
                        want = x
                    if fc[n + 1][i][dg[n][j][x]] != want:
                        return failure(n, "ds", i, j, x)
    return None


def naive_map_failure(f: SimplicialMap) -> ValidationFailure | None:
    """The first failure validate_map(f) reports, one instance at a time.

    The shapes of the source and the target, then the level table's shape,
    then naturality with the faces in (n, i, x) order, then with the
    degeneracies in the same order.
    """
    A, B = f.source, f.target
    for end, X in (("source", A), ("target", B)):
        bad = _naive_shape_failure(X)
        if bad is not None:
            return ValidationFailure("shape", bad.degree, {"end": end, **bad.detail})
    if A.truncation != B.truncation:
        return ValidationFailure("shape", -1, {"reason": "truncation mismatch"})
    N = A.truncation
    if len(f.level) != N + 1:
        return ValidationFailure("shape", -1, {"reason": "level table length"})
    for n in range(N + 1):
        if len(f.level[n]) != A.cells[n]:
            return ValidationFailure("shape", n, {"reason": "level row length"})
        for x in range(A.cells[n]):
            if not 0 <= f.level[n][x] < B.cells[n]:
                return ValidationFailure("shape", n, {"reason": "level out of range"})
    for n in range(1, N + 1):
        for i in range(n + 1):
            for x in range(A.cells[n]):
                if f.level[n - 1][A.face[n][i][x]] != B.face[n][i][f.level[n][x]]:
                    return ValidationFailure("naturality", n, {"op": "face", "i": i, "simplex": x})
    for n in range(N):
        for i in range(n + 1):
            for x in range(A.cells[n]):
                if f.level[n + 1][A.degeneracy[n][i][x]] != B.degeneracy[n][i][f.level[n][x]]:
                    return ValidationFailure(
                        "naturality", n, {"op": "degeneracy", "i": i, "simplex": x}
                    )
    return None


def table_entries(X: TruncatedSSet):
    """(row, x, bound) for every face and degeneracy entry row[x] of X.

    bound is the cell count of the degree the entry points into, so the
    in-range values are 0..bound-1.
    """
    for n in range(1, X.truncation + 1):
        for row in X.face[n]:
            for x in range(X.cells[n]):
                yield row, x, X.cells[n - 1]
    for n in range(X.truncation):
        for row in X.degeneracy[n]:
            for x in range(X.cells[n]):
                yield row, x, X.cells[n + 1]


def bfs_components(X: TruncatedSSet) -> list[set[int]]:
    """Vertex components by breadth-first search along edges.

    Returned in order of least member, mirroring the library's numbering.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(X.cells[0])}
    if X.truncation >= 1:
        for e in range(X.cells[1]):
            a, b = X.face[1][0][e], X.face[1][1][e]
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


def naive_vertex_table(X: TruncatedSSet) -> list[list[list[int]]]:
    """table[n][j][x], the j-th vertex of the n-cell x, each found by naive_vertex."""
    return [
        [[naive_vertex(X, n, x, j) for x in range(X.cells[n])] for j in range(n + 1)]
        for n in range(X.truncation + 1)
    ]


def naive_classes(X: TruncatedSSet) -> tuple[int, list[list[int]]]:
    """The number of BFS components, and per degree each cell's component.

    A cell lies in the component of its vertex 0.
    """
    comps = bfs_components(X)
    comp_of = {v: c for c, comp in enumerate(comps) for v in comp}
    rows = [
        [comp_of[naive_vertex(X, n, x, 0)] for x in range(X.cells[n])]
        for n in range(X.truncation + 1)
    ]
    return len(comps), rows


# The checks by definition.  Each returns the library check's full report:
# stats counted straight from the definition in its docstring, and the first
# witness in the library's documented scan order.  Only the tables,
# naive_vertex and bfs_components are read.


def _naive_lifts(h: SimplicialMap, n: int, j: int) -> dict[tuple[int, int], list[int]]:
    """(u, a) -> the lifts of (n, j, u, a): the n-cells over u with j-th vertex a, ascending."""
    A = h.source
    lifts: dict[tuple[int, int], list[int]] = {}
    for x in range(A.cells[n]):
        lifts.setdefault((h.level[n][x], naive_vertex(A, n, x, j)), []).append(x)
    return lifts


def naive_separable_lifting(h: SimplicialMap) -> CheckReport:
    """Uniqueness of lifts, counted over the (n, j, u, a) that have a lift.

    squares counts the (n, j, u, a) with at least one lift and ambiguous
    those with two or more.  The witness is taken in the first (n, j) with an
    ambiguous square: the least cell x1 sharing its image and j-th vertex
    with another cell, and the least such other cell x2.
    """
    A = h.source
    witness = None
    squares = ambiguous = 0
    for n in range(A.truncation + 1):
        for j in range(n + 1):
            lifts = _naive_lifts(h, n, j)
            shared = [xs for xs in lifts.values() if len(xs) > 1]
            squares += len(lifts)
            ambiguous += len(shared)
            if witness is None and shared:
                x1, x2 = min(shared)[:2]
                u, a = h.level[n][x1], naive_vertex(A, n, x1, j)
                witness = AmbiguousLift(n, j, u, a, x1, x2)
    stats = {"squares": squares, "ambiguous": ambiguous}
    return CheckReport("separable-lifting", witness is None, witness, stats)


def naive_covering(h: SimplicialMap) -> CheckReport:
    """Exactly one lift over every anchored square (n, j, u, a).

    A square is anchored when h(a) is the j-th vertex of u; squares counts
    them, missing those with no lift and ambiguous those with two or more.
    The witness is the first such square in (n, j, u, a) order.
    """
    A, B = h.source, h.target
    witness = None
    squares = missing = ambiguous = 0
    for n in range(A.truncation + 1):
        for j in range(n + 1):
            lifts = _naive_lifts(h, n, j)
            for u in range(B.cells[n]):
                v = naive_vertex(B, n, u, j)
                for a in range(A.cells[0]):
                    if h.level[0][a] != v:
                        continue
                    squares += 1
                    xs = lifts.get((u, a), [])
                    if len(xs) == 1:
                        continue
                    if xs:
                        ambiguous += 1
                    else:
                        missing += 1
                    if witness is None and xs:
                        witness = AmbiguousLift(n, j, u, a, xs[0], xs[1])
                    elif witness is None:
                        witness = MissingLift(n, j, u, a)
    stats = {"squares": squares, "missing": missing, "ambiguous": ambiguous}
    return CheckReport("covering", witness is None, witness, stats)


def anchored_lift_verdicts(h: SimplicialMap) -> tuple[bool, bool]:
    """(covering, separable-lifting) verdicts read at the anchor positions only.

    The lift squares at every (n, j) are decided by j = 0 in every degree
    and j = 1 in degree 1.  Uniqueness: two lifts of u sharing vertex j have
    edges 0 -> j over one base edge with one end, so degree-1 uniqueness at
    j = 1 makes their 0-th vertices equal, and uniqueness at j = 0 makes them
    equal.  Existence: lift the edge 0 -> j of u with its end as the anchor,
    then lift u with vertex 0 as the anchor.
    """
    A, B = h.source, h.target
    anchors = [(n, 0) for n in range(A.truncation + 1)]
    if A.truncation >= 1:
        anchors.append((1, 1))
    covering = separable = True
    for n, j in anchors:
        lifts = _naive_lifts(h, n, j)
        separable = separable and all(len(xs) < 2 for xs in lifts.values())
        for u in range(B.cells[n]):
            v = naive_vertex(B, n, u, j)
            for a in range(A.cells[0]):
                if h.level[0][a] == v and len(lifts.get((u, a), [])) != 1:
                    covering = False
    return covering, separable


def naive_kan(h: SimplicialMap, bound: int | None = None) -> CheckReport:
    """Horn filling by exhaustive family enumeration with itertools.

    horns counts the compatible families over every (n <= bound, k, u), and
    missing those that no cell over u fills.  The witness is the first
    unfillable one in (degree, horn, base, family) order, families in
    lexicographic order.
    """
    A, B = h.source, h.target
    N = A.truncation
    bound = N if bound is None else min(bound, N)
    witness = None
    horns = missing = 0
    for n in range(1, bound + 1):
        # over[b]: the (n-1)-cells over b; fillers[u]: the face tuples of the cells over u
        over: dict[int, list[int]] = {}
        for y in range(A.cells[n - 1]):
            over.setdefault(h.level[n - 1][y], []).append(y)
        fillers: dict[int, list[tuple[int, ...]]] = {}
        for x in range(A.cells[n]):
            faces = tuple(A.face[n][i][x] for i in range(n + 1))
            fillers.setdefault(h.level[n][x], []).append(faces)
        for k in range(n + 1):
            slots = [i for i in range(n + 1) if i != k]
            # (d_i, q, d_{j-1}, p) for the slots i < j at positions p < q: a
            # family is compatible when d_i(y_j) = d_{j-1}(y_i) for each
            laws = [
                (A.face[n - 1][i], q, A.face[n - 1][j - 1], p)
                for (p, i), (q, j) in itertools.combinations(enumerate(slots), 2)
                if n >= 2
            ]
            for u in range(B.cells[n]):
                filled = {faces[:k] + faces[k + 1 :] for faces in fillers.get(u, ())}
                cands = [over.get(B.face[n][i][u], []) for i in slots]
                for fam in itertools.product(*cands):
                    if any(di[fam[q]] != dj[fam[p]] for di, q, dj, p in laws):
                        continue
                    horns += 1
                    if fam not in filled:
                        missing += 1
                        if witness is None:
                            witness = MissingHornFiller(n, k, u, tuple(zip(slots, fam)))
    stats = {"horns": horns, "missing": missing}
    return CheckReport("kan", witness is None, witness, stats)


def naive_trivial_covering(h: SimplicialMap) -> CheckReport:
    """Is x -> (h(x), component of x) a degreewise bijection onto the pairs?

    The n-cells of the pullback are the pairs (b, c) with b an n-cell of B
    in the component that c maps to, listed in full.  clashes counts the
    cells whose pair an earlier cell took, and misses the pairs no cell
    takes.  The witness is taken in the first degree with either, a clash
    before a miss: the first clashing cell with the earliest cell of its
    pair, or the least missed pair.
    """
    A, B = h.source, h.target
    count_a, ca = naive_classes(A)
    cb = naive_classes(B)[1]
    p0 = [-1] * count_a
    for v, w in enumerate(h.level[0]):
        p0[ca[0][v]] = cb[0][w]
    witness = None
    pairs = misses = clashes = 0
    for n in range(A.truncation + 1):
        first: dict[tuple[int, int], int] = {}
        clash = None
        for x in range(A.cells[n]):
            key = (h.level[n][x], ca[n][x])
            if key in first:
                clashes += 1
                clash = clash or ComparisonClash(n, first[key], x)
            else:
                first[key] = x
        want = [(b, c) for b in range(B.cells[n]) for c in range(count_a) if cb[n][b] == p0[c]]
        missed = [p for p in want if p not in first]
        pairs += len(want)
        misses += len(missed)
        if witness is None:
            witness = clash or (ComparisonMiss(n, *missed[0]) if missed else None)
    stats = {
        "cells_source": sum(A.cells),
        "cells_pullback": pairs,
        "misses": misses,
        "clashes": clashes,
    }
    return CheckReport("trivial-covering", witness is None, witness, stats)


def naive_injection_cartesian(m: SimplicialMap) -> CheckReport:
    """Containment of image-meeting components, by plain scans of an injective m.

    leaks counts the cells of components meeting the image that lie outside
    it.  The witness is the least such (component, degree, cell), components
    numbered by least vertex.
    """
    B = m.target
    count, cb = naive_classes(B)
    image = [set(row) for row in m.level]
    meets = {cb[n][y] for n, ys in enumerate(image) for y in ys}
    leaks = [
        (cb[n][y], n, y)
        for n in range(B.truncation + 1)
        for y in range(B.cells[n])
        if cb[n][y] in meets and y not in image[n]
    ]
    witness = ComponentLeak(*min(leaks)) if leaks else None
    stats = {
        "components": count,
        "meeting": len(meets),
        "leaks": len(leaks),
        "cells_scanned": sum(B.cells),
    }
    return CheckReport("injection-cartesian", witness is None, witness, stats)


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
                    sx, sy = X.degeneracy[n - 1][i], Y.degeneracy[n - 1][i]
                    for w in range(X.cells[n - 1]):
                        if sy[level[n - 1][w]] != level[n][sx[w]]:
                            return
            if n == N:
                results.append([list(r) for r in level])
            else:
                assign(n + 1, 0)
            return
        for y in range(Y.cells[n]):
            if n >= 1 and any(
                Y.face[n][i][y] != level[n - 1][X.face[n][i][x]] for i in range(n + 1)
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


# Definitions the library's pi0 and fiber products are compared against:
# components by breadth-first search along the edges, numbered by least
# vertex and read off every vertex of a cell (no union-find, so a bug in the
# library's cannot pass here too), and a fiber product built from sorted
# pairs and looked up in index dicts.


def reference_pi0(X: TruncatedSSet) -> ComponentPartition:
    """Components by breadth-first search; a simplex takes the class of its vertex tuple."""
    comps = bfs_components(X)
    vertex_class = [-1] * X.cells[0]
    for c, comp in enumerate(comps):
        for v in comp:
            vertex_class[v] = c
    vertices = naive_vertex_table(X)
    class_of: list[list[int]] = []
    for n in range(X.truncation + 1):
        row = []
        for x in range(X.cells[n]):
            vs = [row[x] for row in vertices[n]]
            c = vertex_class[vs[0]]
            if any(vertex_class[v] != c for v in vs):
                raise ValueError(f"component class not constant on simplex {x} at degree {n}")
            row.append(c)
        class_of.append(row)
    return ComponentPartition(len(comps), vertex_class, class_of)


def fiber_pairs(fp: FiberProduct) -> list[list[tuple[int, int]]]:
    """pairs[n][p]: the pair (x, y) of the fiber product's cell p, off the projections."""
    return [list(zip(xs, ys)) for xs, ys in zip(fp.pr1.level, fp.pr2.level)]


def fiber_index(fp: FiberProduct) -> list[dict[tuple[int, int], int]]:
    """index[n][(x, y)]: the fiber product's cell of the pair (x, y)."""
    return [{p: i for i, p in enumerate(at_n)} for at_n in fiber_pairs(fp)]


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


# Tools the tests use that the library itself does not need: the action of
# monotone maps on an object, the degeneracy closure that raises the
# truncation of an object or a map, a groupoid-law checker, the discrete
# groupoid, the component object and unit of an object, the inclusion of a
# component, and a seeded relabelling of a map.


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
        phi, m, y = ez_peel_greatest(X, N, x)
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


def sum_groupoid(G: FiniteGroupoid, H: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint sum: G's objects and arrows first, then H's, shifted past them."""
    objects, arrows = G.n_objects, G.n_arrows
    comp = dict(G.compose)
    comp.update({(g + arrows, f + arrows): c + arrows for (g, f), c in H.compose.items()})
    return FiniteGroupoid(
        objects + H.n_objects,
        G.source + [s + objects for s in H.source],
        G.target + [t + objects for t in H.target],
        comp,
        G.identity + [e + arrows for e in H.identity],
        G.inverse + [i + arrows for i in H.inverse],
    )


def component_object(part: ComponentPartition, truncation: int) -> TruncatedSSet:
    """Discrete object on the component set."""
    return discrete_sset(part.count, truncation)


def component_unit(X: TruncatedSSet) -> SimplicialMap:
    """Unit X -> discrete(components), sending a simplex to its class."""
    part = pi0(X)
    return SimplicialMap(
        X, component_object(part, X.truncation), [list(r) for r in part.class_of]
    )


def component_inclusion(X: TruncatedSSet, v: int) -> SimplicialMap:
    """The inclusion into X of the component of vertex v.

    The sub-object holds the cells of v's class under naive_classes, in
    their order in X, renumbered from 0 in each degree.
    """
    N = X.truncation
    classes = naive_classes(X)[1]
    keep = [[x for x, c in enumerate(row) if c == classes[0][v]] for row in classes]
    new = [{x: y for y, x in enumerate(row)} for row in keep]
    face = [[]] + [
        [[new[n - 1][X.face[n][i][x]] for x in keep[n]] for i in range(n + 1)]
        for n in range(1, N + 1)
    ]
    degeneracy = [
        [[new[n + 1][X.degeneracy[n][i][x]] for x in keep[n]] for i in range(n + 1)]
        for n in range(N)
    ]
    sub = TruncatedSSet(N, [len(row) for row in keep], face, degeneracy)
    return SimplicialMap(sub, X, keep)


def _permute_object(X: TruncatedSSet, perms) -> TruncatedSSet:
    """Relabel the cells of each degree n of X by x -> perms[n][x]."""
    N = X.truncation
    face = [[]]
    for n in range(1, N + 1):
        rows = []
        for i in range(n + 1):
            row = [0] * X.cells[n]
            for x, y in enumerate(X.face[n][i]):
                row[perms[n][x]] = perms[n - 1][y]
            rows.append(row)
        face.append(rows)
    degeneracy = []
    for n in range(N):
        rows = []
        for i in range(n + 1):
            row = [0] * X.cells[n]
            for x, y in enumerate(X.degeneracy[n][i]):
                row[perms[n][x]] = perms[n + 1][y]
            rows.append(row)
        degeneracy.append(rows)
    return TruncatedSSet(N, list(X.cells), face, degeneracy)


def relabel(h: SimplicialMap, rng: random.Random) -> SimplicialMap:
    """The same map with the cells of each degree of both ends permuted."""

    def perms_for(X):
        out = []
        for c in X.cells:
            p = list(range(c))
            rng.shuffle(p)
            out.append(p)
        return out

    pa, pb = perms_for(h.source), perms_for(h.target)
    level = []
    for n, row in enumerate(h.level):
        new = [0] * len(row)
        for x, y in enumerate(row):
            new[pa[n][x]] = pb[n][y]
        level.append(new)
    return SimplicialMap(_permute_object(h.source, pa), _permute_object(h.target, pb), level)


def ladder_maps() -> dict[str, SimplicialMap]:
    """Maps whose diagonals are ladder-sized, and a seeded relabelling of each."""
    circle = build_standard(parse_spec("circle"), 3)
    maps = {
        "cyclic-cover-projection:8": cyclic_cover_projection(8, 3),
        "terminal:cyclic-cover:4": terminal_map(build_standard(parse_spec("cyclic-cover:4"), 3)),
        "circle-x-nerve:3": product(circle, nerve(cyclic_group_groupoid(3), 3)).pr1,
    }
    rng = random.Random(9)
    for name, h in list(maps.items()):
        maps[f"relabelled:{name}"] = relabel(h, rng)
    return maps
