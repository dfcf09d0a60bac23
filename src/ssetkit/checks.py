"""Decidable morphism classifiers and the equivalence verdicts between them.

All quantifiers run over the stored degrees 0..N of the (equal) truncations
of source and target; this finiteness convention is what makes every check a
terminating table scan.  Scans are full: statistics count every violation,
and the reported witness is always the first one in the documented order.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable

from .core import TruncatedSSet, vertex_table
from .components import injection_cartesian_check, pi0, pi0_map, trivial_covering_check
from .limits import DiagonalData, diagonal
from .maps import SimplicialMap
from .report import (
    AmbiguousLift,
    CheckReport,
    ComparisonClash,
    ComparisonMiss,
    ComponentLeak,
    MissingHornFiller,
    MissingLift,
)


def _fibers(h: SimplicialMap) -> list[dict[int, list[int]]]:
    out = []
    for n in range(h.source.truncation + 1):
        at_n: dict[int, list[int]] = {}
        for x in range(h.source.cells[n]):
            at_n.setdefault(h.level[n][x], []).append(x)
        out.append(at_n)
    return out


def _lift_buckets(
    h: SimplicialMap, va: list[list[tuple[int, ...]]], n: int, j: int
) -> dict[int, list[int]]:
    """The degree-n cells x of h's source, grouped by (h(x), j-th vertex of x).

    va is the source's vertex table.  The pair (u, a) is keyed by the int
    u * |A_0| + a, and each group lists its cells in ascending order.
    """
    width = h.source.cells[0]
    buckets: dict[int, list[int]] = {}
    for x, (u, vs) in enumerate(zip(h.level[n], va[n])):
        buckets.setdefault(u * width + vs[j], []).append(x)
    return buckets


def covering_check(h: SimplicialMap) -> CheckReport:
    """Unique vertex-anchored lifts in every degree.

    For every degree n, vertex position j, base cell u and source vertex a
    with h(a) the j-th vertex of u, there must be exactly one x over u whose
    j-th vertex is a.  Scan order (n, j, u, a); the witness is the first
    square with zero or two lifts.
    """
    A, B = h.source, h.target
    N = A.truncation
    va, vb = vertex_table(A), vertex_table(B)
    anchors: dict[int, list[int]] = {}
    for a in range(A.cells[0]):
        anchors.setdefault(h.level[0][a], []).append(a)
    width = A.cells[0]
    witness = None
    squares = missing = ambiguous = 0
    for n in range(N + 1):
        for j in range(n + 1):
            buckets = _lift_buckets(h, va, n, j)
            for u in range(B.cells[n]):
                for a in anchors.get(vb[n][u][j], ()):
                    squares += 1
                    lifts = buckets.get(u * width + a, ())
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


def _compatible_families(
    cands: list[int],
    later: list[dict[int, list[int]]],
    slots: list[int],
    face_row: list[list[int]],
) -> list[tuple[int, ...]]:
    """The compatible families over one horn, in lexicographic order.

    face_row is the face table one degree down.  Compatibility: for slots
    i < j, d_i(y_j) = d_{j-1}(y_i).  cands lists the candidates for the
    first slot.  For p >= 1, later[p - 1][v] lists, in ascending order, the
    candidates y for slot p with d_{slots[0]}(y) = v, so the constraint
    against the first slot is one lookup and only slots 1..p-1 are tested.  Families are
    extended slot by slot, each keeping its candidates' order, so they come
    out in the order of a full backtracking scan over (y_0, y_1, ...).
    """
    families = [(y,) for y in cands]
    for p in range(1, len(slots)):
        own, look = face_row[slots[p] - 1], later[p - 1]
        families = [fam + (y,) for fam in families for y in look.get(own[fam[0]], ())]
        for q in range(1, p):
            row = face_row[slots[q]]
            families = [fam for fam in families if row[fam[p]] == own[fam[q]]]
    return families


def kan_check(h: SimplicialMap, bound: int | None = None) -> CheckReport:
    """Horn filling against the base, for all horns of degree <= bound.

    Every compatible family (y_i) over the faces of a base cell u must admit
    x with d_i(x) = y_i and h(x) = u.  The witness is the first unfillable
    horn in (degree, horn index, base cell, family) order, families in
    lexicographic order.  Families are enumerated by lookup: at degree n
    each fiber of degree n-1 is grouped by its d_0 and by its d_1, the face
    that the first compatibility test of a later slot reads, so a slot's
    candidates come from one dict instead of a scan of the fiber.  A
    negative bound raises ValueError.
    """
    if bound is not None and bound < 0:
        raise ValueError(f"kan bound must be >= 0, got {bound}")
    A, B = h.source, h.target
    N = A.truncation
    bound = N if bound is None else min(bound, N)
    fibers = _fibers(h)
    witness = None
    horns = missing = 0
    for n in range(1, bound + 1):
        face_row = A.face[n - 1] if n >= 2 else []
        # by_face[i][b][v]: the y over b with d_i y = v, ascending; i = slots[0]
        by_face: list[dict[int, dict[int, list[int]]]] = []
        for i in range(2) if n >= 2 else ():
            groups: dict[int, dict[int, list[int]]] = {}
            for b, ys in fibers[n - 1].items():
                at_b = groups[b] = {}
                for y in ys:
                    at_b.setdefault(face_row[i][y], []).append(y)
            by_face.append(groups)
        for k in range(n + 1):
            slots = [i for i in range(n + 1) if i != k]
            groups = by_face[slots[0]] if by_face else {}
            # horn_of[x]: the faces of x in the slots, the horn x fills
            horn_of = list(zip(*(A.face[n][i] for i in slots)))
            for u in range(B.cells[n]):
                bases = [B.face[n][i][u] for i in slots]
                if any(b not in fibers[n - 1] for b in bases):
                    continue
                cands = fibers[n - 1][bases[0]]
                later = [groups[b] for b in bases[1:]]
                families = _compatible_families(cands, later, slots, face_row)
                filled = {horn_of[x] for x in fibers[n].get(u, ())}
                unfilled = [fam for fam in families if fam not in filled]
                horns += len(families)
                missing += len(unfilled)
                if witness is None and unfilled:
                    witness = MissingHornFiller(n, k, u, tuple(zip(slots, unfilled[0])))
    stats = {"horns": horns, "missing": missing}
    return CheckReport("kan", witness is None, witness, stats)


def separable_via_lifting(h: SimplicialMap) -> CheckReport:
    """Uniqueness of vertex-anchored lifts (existence not required).

    Two distinct cells over the same base sharing any one vertex violate
    separability.  The witness minimizes (degree, vertex position, first
    cell, second cell).
    """
    A = h.source
    N = A.truncation
    va = vertex_table(A)
    witness = None
    squares = ambiguous = 0
    for n in range(N + 1):
        for j in range(n + 1):
            buckets = _lift_buckets(h, va, n, j)
            squares += len(buckets)
            # a cell lies in one group, so the first cells of groups differ
            best = None
            for xs in buckets.values():
                if len(xs) > 1:
                    ambiguous += 1
                    if best is None or xs[0] < best[0]:
                        best = xs
            if witness is None and best is not None:
                x = best[0]
                witness = AmbiguousLift(n, j, h.level[n][x], va[n][x][j], x, best[1])
    stats = {"squares": squares, "ambiguous": ambiguous}
    return CheckReport("separable-lifting", witness is None, witness, stats)


def separable_direct(h: SimplicialMap, diag: DiagonalData | None = None) -> CheckReport:
    """Separability via the relative diagonal.

    Builds the diagonal A -> A x_B A (always injective) and checks it with
    the component-containment criterion.  The witness, when present, is a
    component leak inside the fiber product; fiber-product cells are indexed
    by lexicographic pair order, so the witness is reproducible from h alone.
    """
    dd = diag or diagonal(h)
    inner = injection_cartesian_check(dd.delta)
    return CheckReport("separable-direct", inner.verdict, inner.witness, inner.stats)


@functools.cache
def _reads(predicate: Callable) -> tuple[str, ...]:
    return tuple(inspect.signature(predicate).parameters)


@dataclass(frozen=True)
class Claim:
    """One machine-verified equivalence or implication, as a row of CLAIMS.

    The conclusion names the reports it reads (direct, lifting, covering,
    kan, ...) by its parameters and reads them off whatever object it is
    given; it returns a boolean, or a list of failures that is empty when
    the claim holds.  A claim with a hypothesis assumes that report's
    verdict; campaigns count the records meeting it as <hypothesis>_instances.
    """

    name: str  # campaign record key
    hypothesis: str | None  # the report whose verdict the claim assumes, if any
    conclusion: Callable[..., bool | list[str]]
    violations: str  # campaign document field listing the violating records
    agreements: str | None  # campaign document field counting the holding records
    verify: str  # the `ssetkit verify` kind whose exit code the claim decides
    # violating campaign records carry the verdicts and the serialized instance
    keeps_instance: bool = True

    def value(self, obj) -> bool | list[str] | None:
        """The conclusion on obj, or None when obj is outside the hypothesis."""
        if self.hypothesis is not None and not getattr(obj, self.hypothesis).verdict:
            return None
        return self.conclusion(*(getattr(obj, r) for r in _reads(self.conclusion)))


def violates(value: bool | list[str] | None) -> bool:
    """Whether a value Claim.value returned is a violation."""
    return bool(value) if isinstance(value, list) else value is False


def _implication_failures(trivial, covering, kan, direct) -> list[str]:
    chain = (  # (premise, consequence, failure)
        (trivial, covering, "trivial-covering implies covering"),
        (covering, kan, "covering implies kan"),
        (covering, direct, "covering implies separable"),
    )
    return [failure for p, q, failure in chain if p.verdict and not q.verdict]


def _injection_failures(trivial, trivial_delta, direct, injection_cartesian) -> list[str]:
    out = []
    if injection_cartesian is not None and injection_cartesian.verdict != trivial.verdict:
        out.append("injection-cartesian vs trivial-covering on the map")
    if trivial_delta.verdict != direct.verdict:
        out.append("injection-cartesian vs trivial-covering on the diagonal")
    return out


# Every verified claim, in campaign scoring order: (record key, hypothesis,
# conclusion, violations field, agreements field, verify kind).  Campaign
# records and documents, the agreement reports and `ssetkit verify` exit
# codes are all derived from this table.
CLAIMS = {
    c.name: c
    for c in (
        Claim("separability_agree", None,
              lambda direct, lifting: direct.verdict == lifting.verdict,
              "separability_disagreements", "separability_agreements", "theorem1"),
        Claim("covering_agree", "kan",
              lambda direct, covering: direct.verdict == covering.verdict,
              "covering_disagreements", "covering_agreements", "theorem2"),
        # a failing covering check on a Kan map never lacks lifts
        Claim("ambiguous_only", "kan",
              lambda covering: covering.stats.get("missing", 0) == 0,
              "missing_lift_violations", None, "theorem2"),
        Claim("implication_failures", None, _implication_failures,
              "implication_violations", None, "chain"),
        Claim("injection_failures", None, _injection_failures,
              "injection_violations", None, "chain"),
        # the audit lists the checks whose failure witness does not replay
        Claim("witness_failures", None, lambda audit: audit,
              "witness_failures", None, "theorem1", keeps_instance=False),
    )
}


def holds(verify: str, obj) -> bool:
    """The `ssetkit verify <verify>` verdict on one map's reports in obj.

    Only claims whose conclusion's reports obj carries are decided: a single
    map's SeparabilityAgreement is not held to the campaign's witness audit.
    """
    return not any(
        violates(c.value(obj))
        for c in CLAIMS.values()
        if c.verify == verify and all(hasattr(obj, r) for r in _reads(c.conclusion))
    )


@dataclass
class SeparabilityAgreement:
    """Both separability characterizations, and whether they agree."""

    direct: CheckReport
    lifting: CheckReport

    @property
    def agree(self) -> bool:
        return CLAIMS["separability_agree"].value(self)

    def to_doc(self) -> dict:
        return {
            "equivalence": "separability",
            "agree": self.agree,
            "direct": self.direct.to_doc(),
            "lifting": self.lifting.to_doc(),
        }


@dataclass
class CoveringAgreement:
    """Separability versus covering, conditional on the Kan hypothesis.

    When the map fails kan_check the instance is out of hypothesis and no
    agreement claim is made.  ambiguous_only records that a failing covering
    check on a Kan map never lacks lifts, only uniqueness.
    """

    kan: CheckReport
    direct: CheckReport | None = None
    covering: CheckReport | None = None

    @property
    def out_of_hypothesis(self) -> bool:
        return not self.kan.verdict

    @property
    def agree(self) -> bool | None:
        return CLAIMS["covering_agree"].value(self)

    @property
    def ambiguous_only(self) -> bool | None:
        return CLAIMS["ambiguous_only"].value(self)

    def to_doc(self) -> dict:
        doc: dict = {
            "equivalence": "covering",
            "out_of_hypothesis": self.out_of_hypothesis,
            "kan": self.kan.to_doc(),
        }
        if not self.out_of_hypothesis:
            doc["agree"] = self.agree
            doc["ambiguous_only"] = self.ambiguous_only
            doc["direct"] = self.direct.to_doc()
            doc["covering"] = self.covering.to_doc()
        return doc


def separability_agreement(h: SimplicialMap) -> SeparabilityAgreement:
    """Compare the diagonal and lifting characterizations of separability."""
    dd = diagonal(h)
    return SeparabilityAgreement(separable_direct(h, dd), separable_via_lifting(h))


def covering_agreement(h: SimplicialMap) -> CoveringAgreement:
    """Compare separability with being a covering, under the Kan hypothesis."""
    rep = CoveringAgreement(kan_check(h))
    if not rep.out_of_hypothesis:
        rep.direct, rep.covering = separable_direct(h), covering_check(h)
    return rep


def revalidate_witness(h: SimplicialMap, report: CheckReport) -> bool:
    """Independently re-check a failure witness against the raw tables.

    h must be the map the report was produced for (for separable-direct the
    diagonal is rebuilt from h; a caller that holds diagonal(h) can replay
    the report as an injection-cartesian one against its delta instead).
    Returns True when the witness demonstrates a genuine violation.
    """
    if report.verdict or report.witness is None:
        return report.verdict and report.witness is None
    w = report.witness
    if report.check == "separable-direct":
        dd = diagonal(h)
        return _recheck_leak(dd.delta, w)
    if report.check == "injection-cartesian":
        return _recheck_leak(h, w)
    if report.check == "trivial-covering":
        return _recheck_comparison(h, w)
    if report.check == "covering":
        return _recheck_covering(h, w)
    if report.check == "separable-lifting":
        return _recheck_lifting(h, w)
    if report.check == "kan":
        return _recheck_horn(h, w)
    raise ValueError(f"unknown check {report.check!r}")


def _is_cell(X: TruncatedSSet, n: int, *xs: int) -> bool:
    """Is n a stored degree of X and every x an n-cell of X?

    Replay checks indices with this before reading a table, so that a
    negative index does not wrap around and a large one does not raise.
    """
    return 0 <= n <= X.truncation and all(0 <= x < X.cells[n] for x in xs)


def _recheck_leak(m: SimplicialMap, w) -> bool:
    if not isinstance(w, ComponentLeak):
        return False
    B = m.target
    if not _is_cell(B, w.degree, w.cell):
        return False
    pb = pi0(B)
    if pb.class_of[w.degree][w.cell] != w.component:
        return False
    if w.cell in set(m.level[w.degree]):
        return False
    for n in range(B.truncation + 1):
        for y in set(m.level[n]):
            if pb.class_of[n][y] == w.component:
                return True
    return False


def _recheck_comparison(h: SimplicialMap, w) -> bool:
    A = h.source
    pa, pb = pi0(A), pi0(h.target)
    if isinstance(w, ComparisonClash):
        n = w.degree
        if w.first == w.second or not _is_cell(A, n, w.first, w.second):
            return False
        return (
            h.level[n][w.first] == h.level[n][w.second]
            and pa.class_of[n][w.first] == pa.class_of[n][w.second]
        )
    if isinstance(w, ComparisonMiss):
        n, b, c = w.degree, w.target_cell, w.component
        if not (0 <= c < pa.count and _is_cell(h.target, n, b)):
            return False
        if pb.class_of[n][b] != pi0_map(h, pa, pb)[c]:
            return False  # not a pullback pair at all
        return all(
            h.level[n][x] != b or pa.class_of[n][x] != c for x in range(A.cells[n])
        )
    return False


def _recheck_covering(h: SimplicialMap, w) -> bool:
    A, B = h.source, h.target
    if isinstance(w, (MissingLift, AmbiguousLift)):
        n, j, u, a = w.degree, w.vertex, w.base, w.anchor
        if not (_is_cell(B, n, u) and 0 <= j <= n and _is_cell(A, 0, a)):
            return False
        if h.level[0][a] != B.vertex(n, u, j):
            return False
        lifts = [
            x
            for x in range(A.cells[n])
            if h.level[n][x] == u and A.vertex(n, x, j) == a
        ]
        if isinstance(w, MissingLift):
            return not lifts
        return (
            w.first != w.second
            and w.first in lifts
            and w.second in lifts
        )
    return False


def _recheck_lifting(h: SimplicialMap, w) -> bool:
    if not isinstance(w, AmbiguousLift):
        return False
    A = h.source
    n, j = w.degree, w.vertex
    x1, x2 = w.first, w.second
    return (
        x1 != x2
        and _is_cell(A, n, x1, x2)
        and 0 <= j <= n
        and h.level[n][x1] == w.base == h.level[n][x2]
        and A.vertex(n, x1, j) == w.anchor == A.vertex(n, x2, j)
    )


def _recheck_horn(h: SimplicialMap, w) -> bool:
    if not isinstance(w, MissingHornFiller):
        return False
    A, B = h.source, h.target
    n, k, u = w.degree, w.horn, w.base
    if not (n >= 1 and _is_cell(B, n, u) and 0 <= k <= n):
        return False
    slots = [i for i in range(n + 1) if i != k]
    if [i for i, _ in w.faces] != slots:
        return False
    faces = dict(w.faces)
    if not _is_cell(A, n - 1, *faces.values()):
        return False
    for i in slots:
        if h.level[n - 1][faces[i]] != B.face[n][i][u]:
            return False
    for j in slots:
        for i in slots:
            if i < j and n >= 2:
                if A.face[n - 1][i][faces[j]] != A.face[n - 1][j - 1][faces[i]]:
                    return False
    for x in range(A.cells[n]):
        if h.level[n][x] == u and all(A.face[n][i][x] == faces[i] for i in slots):
            return False
    return True
