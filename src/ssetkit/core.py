"""Finite truncated simplicial sets stored as explicit face/degeneracy tables.

An object truncated at degree N keeps, for every degree n in 0..N, a finite
set of n-simplices (identified with the indices 0..cells[n]-1), together with
total face tables d_i : X_n -> X_{n-1} for degrees 1..N and degeneracy tables
s_i : X_n -> X_{n+1} for degrees 0..N-1.  Everything above the truncation is
forgotten; everything below is stored explicitly, including degenerate cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import eq
from typing import Callable, TypeVar

_T = TypeVar("_T")

# The most cells, summed over degrees, that an object document may declare.
# A document at truncation 0 has no rows to bound its vertex count, and
# validate allocates per declared cell.  It is far above every document the
# tests, demos and benchmarks read, and above the 4,780,229 cells of
# simplex:3 at truncation 100.  io.object_from_doc reads it when called.
CELL_BUDGET = 10**7


@dataclass
class ValidationFailure:
    """First law violation found by a validator.

    kind is one of "shape", "identity", "naturality"; detail carries the
    offending law, indices and simplex so the failure can be re-checked
    independently.
    """

    kind: str
    degree: int
    detail: dict

    def __str__(self) -> str:
        bits = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"{self.kind} failure at degree {self.degree}: {bits}"

    def to_doc(self) -> dict:
        return {"kind": self.kind, "degree": self.degree, **self.detail}


@dataclass
class ValidationReport:
    failure: ValidationFailure | None = None
    # True when the top degree carries no nondegenerate cells (or the object
    # is empty).  Constructions such as nerves may legitimately lack a buffer
    # degree, so this is reported rather than treated as a failure.
    has_buffer: bool = True

    @property
    def ok(self) -> bool:
        return self.failure is None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(eq=True)
class TruncatedSSet:
    """Degreewise finite simplicial set truncated at ``truncation``.

    cells[n] is the number of n-simplices.  face[n][i][x] is d_i(x) for
    1 <= n <= truncation, 0 <= i <= n (face[0] is an empty placeholder).
    degeneracy[n][i][x] is s_i(x) for 0 <= n <= truncation - 1, 0 <= i <= n.
    Simplex identity is positional.

    Derived tables (vertex_table, pi0) are computed once per object, on first
    use, and kept on it; equality, repr, serialization and copies ignore
    them, and a copy starts without them.  The tables must therefore not be
    mutated once anything has been derived from them: build a new object,
    or tamper with a copy.
    """

    truncation: int
    cells: list[int]
    face: list[list[list[int]]]
    degeneracy: list[list[list[int]]]

    def __post_init__(self) -> None:
        self._derived: dict[str, object] = {}

    def __getstate__(self) -> dict:
        # copy.copy, copy.deepcopy and pickle go through here
        return {k: v for k, v in self.__dict__.items() if k != "_derived"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derived = {}

    def derived(self, name: str, build: Callable[["TruncatedSSet"], _T]) -> _T:
        """The derived table ``name``: build(self) on first use, then kept."""
        try:
            return self._derived[name]
        except KeyError:
            value = self._derived[name] = build(self)
            return value

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
    for n in range(1, N + 1):
        if len(X.face[n]) != n + 1:
            return ValidationFailure("shape", n, {"reason": "face row count"})
        for i, row in enumerate(X.face[n]):
            if len(row) != X.cells[n]:
                return ValidationFailure("shape", n, {"reason": "face row length", "i": i})
            if row and (min(row) < 0 or max(row) >= X.cells[n - 1]):
                return ValidationFailure("shape", n, {"reason": "face out of range", "i": i})
    for n in range(N):
        if len(X.degeneracy[n]) != n + 1:
            return ValidationFailure("shape", n, {"reason": "degeneracy row count"})
        for i, row in enumerate(X.degeneracy[n]):
            if len(row) != X.cells[n]:
                return ValidationFailure(
                    "shape", n, {"reason": "degeneracy row length", "i": i}
                )
            if row and (min(row) < 0 or max(row) >= X.cells[n + 1]):
                return ValidationFailure(
                    "shape", n, {"reason": "degeneracy out of range", "i": i}
                )
    return None


def validate(X: TruncatedSSet) -> ValidationReport:
    """Check the simplicial identities on every stored degree.

    Reports the first violated identity instance: its law, indices and
    simplex.  Instances are scanned in (n, j, i, x) order for the laws dd
    and ss, and in (n, j, x, i) order for ds.  Each (n, i, j) composes two
    table rows and compares them whole; only a pair that differs is scanned
    for its first bad x.  The shape is checked first, with one min and max
    per row, and the degenerate cells for has_buffer are found one i-row at
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

    # d_i d_j = d_{j-1} d_i for i < j
    for n in range(2, N + 1):
        for j in range(n + 1):
            for i in range(j):
                got = list(map(fc[n - 1][i].__getitem__, fc[n][j]))
                want = list(map(fc[n - 1][j - 1].__getitem__, fc[n][i]))
                if got != want:
                    return failure(n, "dd", i, j, _first_difference(got, want))
    # s_i s_j = s_{j+1} s_i for i <= j
    for n in range(N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                got = list(map(dg[n + 1][i].__getitem__, dg[n][j]))
                want = list(map(dg[n + 1][j + 1].__getitem__, dg[n][i]))
                if got != want:
                    return failure(n, "ss", i, j, _first_difference(got, want))
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


def vertex_table(X: TruncatedSSet) -> list[list[tuple[int, ...]]]:
    """All vertices of all simplices, computed bottom-up once per object.

    table[n][x] is the (n+1)-tuple of vertices of x.  Uses a different face
    composite than TruncatedSSet.vertex, which the witness replay reads so
    as not to trust the table the scans read; the tests compare the two.
    The table is shared by every caller: read it, do not modify it.
    """
    return X.derived("vertex_table", _vertex_table)


def _vertex_table(X: TruncatedSSet) -> list[list[tuple[int, ...]]]:
    table: list[list[tuple[int, ...]]] = [[(v,) for v in range(X.cells[0])]]
    for n in range(1, X.truncation + 1):
        last, first = X.face[n][n], X.face[n][0]
        prev = table[n - 1]
        table.append(
            [prev[last[x]] + (prev[first[x]][n - 1],) for x in range(X.cells[n])]
        )
    return table


def disjoint_union(X: TruncatedSSet, Y: TruncatedSSet) -> TruncatedSSet:
    """Coproduct with X's cells first; inclusions are index shifts."""
    if X.truncation != Y.truncation:
        raise ValueError("truncation mismatch in disjoint union")
    N = X.truncation
    cells = [X.cells[n] + Y.cells[n] for n in range(N + 1)]
    face: list[list[list[int]]] = [[]]
    for n in range(1, N + 1):
        off = X.cells[n - 1]
        face.append(
            [X.face[n][i] + [v + off for v in Y.face[n][i]] for i in range(n + 1)]
        )
    degeneracy = []
    for n in range(N):
        off = X.cells[n + 1]
        degeneracy.append(
            [X.degeneracy[n][i] + [v + off for v in Y.degeneracy[n][i]] for i in range(n + 1)]
        )
    return TruncatedSSet(N, cells, face, degeneracy)
