"""Finite truncated simplicial sets stored as explicit face/degeneracy tables.

An object truncated at degree N keeps, for every degree n in 0..N, a finite
set of n-simplices (identified with the indices 0..cells[n]-1), together with
total face tables d_i : X_n -> X_{n-1} for degrees 1..N and degeneracy tables
s_i : X_n -> X_{n+1} for degrees 0..N-1.  Everything above the truncation is
forgotten; everything below is stored explicitly, including degenerate cells.
"""

from __future__ import annotations

from itertools import compress
from operator import eq
from typing import Callable, TypeVar

from ._record import Record

_T = TypeVar("_T")

# The most cells, summed over degrees, that an object document may declare
# and that a standard object, a nerve or a fiber product may have.  A
# document at truncation 0 has no rows to bound its vertex count, and
# validate allocates per declared cell.  It is far above every document the
# tests, demos and benchmarks read, and above the 4,780,229 cells of
# simplex:3 at truncation 100.  io.object_from_doc and _check_budget read it
# when called.
CELL_BUDGET = 10**7


class ValidationFailure(Record):
    """First law violation found by a validator.

    kind is one of "shape", "identity", "naturality"; detail carries the
    offending law, indices and simplex so the failure can be re-checked
    independently.
    """

    _fields = ("kind", "degree", "detail")

    def __str__(self) -> str:
        bits = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"{self.kind} failure at degree {self.degree}: {bits}"

    def to_doc(self) -> dict:
        return {"kind": self.kind, "degree": self.degree, **self.detail}


class ValidationReport(Record):
    """Outcome of a validator: the first failure found, or None.

    has_buffer is True when the top degree carries no nondegenerate cells
    (or the object is empty).  Constructions such as nerves may legitimately
    lack a buffer degree, so this is reported rather than treated as a
    failure.
    """

    _fields = ("failure", "has_buffer")
    _defaults = {"failure": None, "has_buffer": True}

    @property
    def ok(self) -> bool:
        return self.failure is None

    def __bool__(self) -> bool:
        return self.ok


class TruncatedSSet(Record):
    """Degreewise finite simplicial set truncated at ``truncation``.

    cells[n] is the number of n-simplices.  face[n][i][x] is d_i(x) for
    1 <= n <= truncation, 0 <= i <= n (face[0] is an empty placeholder).
    degeneracy[n][i][x] is s_i(x) for 0 <= n <= truncation - 1, 0 <= i <= n.
    Simplex identity is positional.

    Derived tables (vertex_table, pi0) are computed once per object, on first
    use, and kept on it in a cache that is itself made on first use;
    equality, repr, serialization and copies ignore them, and a copy starts
    without them.  The tables must therefore not be mutated once anything
    has been derived from them: build a new object, or tamper with a copy.
    """

    _fields = ("truncation", "cells", "face", "degeneracy")

    def __getstate__(self) -> dict:
        # copy.copy, copy.deepcopy and pickle go through here
        return {k: v for k, v in self.__dict__.items() if k != "_derived"}

    def derived(self, name: str, build: Callable[["TruncatedSSet"], _T]) -> _T:
        """The derived table ``name``: build(self) on first use, then kept."""
        tables = vars(self).setdefault("_derived", {})
        if name not in tables:
            tables[name] = build(self)
        return tables[name]

    def nondegenerate(self, n: int) -> list[bool]:
        """Whether each n-cell is nondegenerate, one i-row at a time.

        x = s_i(y) forces y = d_i(x), so x is degenerate exactly when
        s_i(d_i(x)) = x for some i, which table lookups alone decide.
        """
        flags, cells = [True] * self.cells[n], range(self.cells[n])
        for i in range(n):
            round_trip = map(self.degeneracy[n - 1][i].__getitem__, self.face[n][i])
            for x in compress(cells, map(eq, cells, round_trip)):
                flags[x] = False
        return flags

    @property
    def nondegenerate_dim(self) -> int:
        """Largest degree carrying a nondegenerate simplex, -1 if empty."""
        for n in range(self.truncation, -1, -1):
            if any(self.nondegenerate(n)):
                return n
        return -1

    def vertex(self, n: int, x: int, j: int) -> int:
        """j-th vertex of the n-simplex x.

        Canonical composite: apply d_0 j times, then d_1 until degree zero.
        """
        deg, c = n, x
        for _ in range(j):
            c = self.face[deg][0][c]
            deg -= 1
        while deg > 0:
            c = self.face[deg][1][c]
            deg -= 1
        return c


def empty_sset(truncation: int) -> TruncatedSSet:
    return discrete_sset(0, truncation)


def discrete_sset(points: int, truncation: int) -> TruncatedSSet:
    """Discrete object on ``points`` vertices: all structure maps identities."""
    if points < 0:
        raise ValueError("points must be >= 0")
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    n = truncation
    ident = list(range(points))
    return TruncatedSSet(
        truncation=n,
        cells=[points] * (n + 1),
        face=[[]] + [[list(ident) for _ in range(m + 1)] for m in range(1, n + 1)],
        degeneracy=[[list(ident) for _ in range(m + 1)] for m in range(n)],
    )


def _check_budget(cells: int, what: str) -> None:
    """Raise ValueError when cells, a count made before anything is built, is over CELL_BUDGET."""
    if cells > CELL_BUDGET:
        raise ValueError(f"{what}: more than {CELL_BUDGET} cells in all")


def _operators(N: int) -> tuple[tuple[str, int, range], ...]:
    """(name, step, degrees) of the face table, then the degeneracy table.

    Row i of the table called name, at degree n, maps the n-cells to the
    (n + step)-cells, for n in degrees: d_i for n in 1..N, s_i for n in
    0..N-1, at truncation N.  face[0] is a placeholder, outside the degrees.
    """
    return (("face", -1, range(1, N + 1)), ("degeneracy", 1, range(N)))


def _shape_failure(X: TruncatedSSet) -> ValidationFailure | None:
    N = X.truncation
    if N < 0:
        return ValidationFailure("shape", -1, {"reason": "negative truncation"})
    if len(X.cells) != N + 1 or any(c < 0 for c in X.cells):
        return ValidationFailure("shape", -1, {"reason": "bad cell counts"})
    if len(X.face) != N + 1:
        return ValidationFailure("shape", -1, {"reason": "face table length"})
    if len(X.degeneracy) != N:
        return ValidationFailure("shape", -1, {"reason": "degeneracy table length"})
    for name, step, degrees in _operators(N):
        table = getattr(X, name)
        for n in degrees:
            if len(table[n]) != n + 1:
                return ValidationFailure("shape", n, {"reason": f"{name} row count"})
            for i, row in enumerate(table[n]):
                if len(row) != X.cells[n]:
                    return ValidationFailure("shape", n, {"reason": f"{name} row length", "i": i})
                if row and (min(row) < 0 or max(row) >= X.cells[n + step]):
                    return ValidationFailure("shape", n, {"reason": f"{name} out of range", "i": i})
    return None


def validate(X: TruncatedSSet) -> ValidationReport:
    """Check the simplicial identities on every stored degree.

    Reports the first violated identity instance: its law, indices and
    simplex.  Instances are scanned in (n, j, i, x) order for the laws dd
    and ss, and in (n, j, x, i) order for ds.  Each (n, i, j) composes two
    table rows and compares them whole; only a pair that differs is scanned
    for its first bad x.  The shape is checked first, every face row
    before every degeneracy row, each in ascending degree, with one min and
    max per row; the degenerate cells for has_buffer are found one i-row at
    a time.  A missing buffer degree (nondegenerate cells at the
    truncation) is reported via ``has_buffer``, not as a failure.  It is
    read off the cells whenever the shape is sound, after an identity
    failure too; after a shape failure it is False.
    """
    bad = _shape_failure(X)
    if bad is not None:
        return ValidationReport(failure=bad, has_buffer=False)
    # every table entry is in range now, so the degeneracy test reads only cells
    has_buffer = X.nondegenerate_dim < X.truncation
    return ValidationReport(failure=_identity_failure(X), has_buffer=has_buffer)


def _first_difference(got: list[int], want: list[int]) -> int:
    """The least index at which two rows of equal length differ."""
    return next(x for x, (g, w) in enumerate(zip(got, want)) if g != w)


def _identity_failure(X: TruncatedSSet) -> ValidationFailure | None:
    N = X.truncation
    fc, dg = X.face, X.degeneracy

    def failure(n: int, law: str, i: int, j: int, x: int) -> ValidationFailure:
        return ValidationFailure("identity", n, {"law": law, "i": i, "j": j, "simplex": x})

    # op_i op_j = op_{j+step} op_i: d_i d_j = d_{j-1} d_i for i < j, then
    # s_i s_j = s_{j+1} s_i for i <= j, at each degree n where n + step is one too
    for (name, step, degrees), law in zip(_operators(N), ("dd", "ss")):
        op = getattr(X, name)
        for n in (n for n in degrees if n + step in degrees):
            for j in range(n + 1):
                for i in range(j + (step > 0)):
                    got = list(map(op[n + step][i].__getitem__, op[n][j]))
                    want = list(map(op[n + step][j + step].__getitem__, op[n][i]))
                    if got != want:
                        return failure(n, law, i, j, _first_difference(got, want))
    # d_i s_j, split into the three ranges; x is scanned before i, so the
    # failure is the least (x, i) among the failing rows of one (n, j)
    for n in range(N):
        ident = list(range(X.cells[n]))
        for j in range(n + 1):
            bad = []
            for i in range(n + 2):
                got = list(map(fc[n + 1][i].__getitem__, dg[n][j]))
                if i == j or i == j + 1:
                    want = ident
                elif i < j:
                    want = list(map(dg[n - 1][j - 1].__getitem__, fc[n][i]))
                else:
                    want = list(map(dg[n - 1][j].__getitem__, fc[n][i - 1]))
                if got != want:
                    bad.append((_first_difference(got, want), i))
            if bad:
                x, i = min(bad)
                return failure(n, "ds", i, j, x)
    return None


def vertex_table(X: TruncatedSSet) -> list[list[list[int]]]:
    """All vertices of all simplices, computed bottom-up once per object.

    table[n][j][x] is the j-th vertex of the n-cell x, indexed like
    face[n][i][x].  Uses a different face composite than
    TruncatedSSet.vertex, which the witness replay reads so as not to trust
    the table the scans read; the tests compare the two.  The table is
    shared by every caller: read it, do not modify it.
    """
    return X.derived("vertex_table", _vertex_table)


def _vertex_table(X: TruncatedSSet) -> list[list[list[int]]]:
    # vertices 0..n-1 of x are those of d_n x, and vertex n is the last of d_0 x
    table = [[list(range(X.cells[0]))]]
    for n in range(1, X.truncation + 1):
        last, first = X.face[n][n], X.face[n][0]
        rows = [list(map(row.__getitem__, last)) for row in table[n - 1]]
        table.append(rows + [list(map(table[n - 1][n - 1].__getitem__, first))])
    return table


def disjoint_union(X: TruncatedSSet, Y: TruncatedSSet) -> TruncatedSSet:
    """Coproduct with X's cells first; inclusions are index shifts."""
    if X.truncation != Y.truncation:
        raise ValueError("truncation mismatch in disjoint union")
    N = X.truncation
    cells = [X.cells[n] + Y.cells[n] for n in range(N + 1)]
    glued: dict[str, list[list[list[int]]]] = {}
    for name, step, degrees in _operators(N):
        # Y's entries shift past X's (n + step)-cells
        tx, ty = getattr(X, name), getattr(Y, name)
        glued[name] = [
            [x + [v + X.cells[n + step] for v in y] for x, y in zip(tx[n], ty[n])]
            for n in degrees
        ]
    return TruncatedSSet(N, cells, [[]] + glued["face"], glued["degeneracy"])
