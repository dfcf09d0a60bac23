"""Decidable morphism classifiers and the equivalence verdicts between them.

All quantifiers run over the stored degrees 0..N of the (equal) truncations
of source and target; this finiteness convention is what makes every check a
terminating table scan.  Scans are full: statistics count every violation,
and the reported witness is always the first one in the documented order.
"""

from __future__ import annotations

from ._record import Frozen, Record
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


def _fibers(h: SimplicialMap, n: int) -> dict[int, list[int]]:
    """The degree-n cells of h's source, grouped by image, each group ascending."""
    out: dict[int, list[int]] = {}
    for x, u in enumerate(h.level[n]):
        out.setdefault(u, []).append(x)
    return out


def _buckets(base: list[int], other: list[int], width: int) -> dict[int, list[int]]:
    """The positions x grouped by the pair (base[x], other[x]), each group ascending.

    The pair (b, v) is keyed by the int b * width + v, so width must exceed
    every entry of other.
    """
    buckets: dict[int, list[int]] = {}
    for x, (b, v) in enumerate(zip(base, other)):
        buckets.setdefault(b * width + v, []).append(x)
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
    anchors = _fibers(h, 0)
    width = A.cells[0]
    witness = None
    squares = missing = ambiguous = 0
    for n in range(N + 1):
        for j in range(n + 1):
            buckets = _buckets(h.level[n], va[n][j], width)
            for u in range(B.cells[n]):
                for a in anchors.get(vb[n][j][u], ()):
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


def kan_check(h: SimplicialMap, bound: int | None = None) -> CheckReport:
    """Horn filling against the base, for all horns of degree <= bound.

    Every compatible family (y_i) over the faces of a base cell u must admit
    x with d_i(x) = y_i and h(x) = u.  The witness is the first unfillable
    horn in (degree, horn index, base cell, family) order, families in
    lexicographic order.

    Each (n, k) is one join over all base cells u at once, on tuples
    (u, y_0, y_1, ...) built u-major and lexicographic within u, which is
    the witness order.  Slot 0 takes the fiber over d_{slots[0]} u.
    Compatibility of slots i < j is d_i(y_j) = d_{j-1}(y_i); against slot 0
    it fixes d_{slots[0]} y_p, so the degree-(n-1) cells y are indexed by
    the int b * |A_{n-2}| + v for their base b and v = d_0 y (d_1 y when
    k = 0), and every later slot takes its candidates with one lookup.
    Slot 1 is joined in the same pass as slot 0, and each later slot is
    tested against slot 1 as it is joined; the other slot-to-slot tests
    filter the whole list.  A family is filled when it is the (image, horn
    faces) tuple of an n-cell.  A negative bound raises ValueError.
    """
    if bound is not None and bound < 0:
        raise ValueError(f"kan bound must be >= 0, got {bound}")
    A, B = h.source, h.target
    N = A.truncation
    bound = N if bound is None else min(bound, N)
    witness = None
    horns = missing = 0
    for n in range(1, bound + 1):
        fiber = _fibers(h, n - 1)
        face_row = A.face[n - 1] if n >= 2 else []
        width = A.cells[n - 2] if n >= 2 else 0
        # by_face[i][b * width + v]: the y over b with d_i y = v, ascending
        by_face = [_buckets(h.level[n - 1], face_row[i], width) for i in range(2) if n >= 2]
        for k in range(n + 1):
            slots = [i for i in range(n + 1) if i != k]
            base = [B.face[n][i] for i in slots]
            if n == 1:
                families = [(u, y) for u, b in enumerate(base[0]) for y in fiber.get(b, ())]
            else:
                # slots 0 and 1 in one pass: y_1 is looked up under d_{slots[1]} u
                # and v = d_{slots[1]-1} y_0
                look = by_face[slots[0]]
                offset = [b * width for b in base[1]]
                own = face_row[slots[1] - 1]
                families = [
                    (u, y0, y1)
                    for u, (b, off) in enumerate(zip(base[0], offset))
                    for y0 in fiber.get(b, ())
                    for y1 in look.get(off + own[y0], ())
                ]
            for p in range(2, len(slots)):
                offset = [b * width for b in base[p]]
                own, first = face_row[slots[p] - 1], face_row[slots[1]]
                families = [
                    fam + (y,)
                    for fam in families
                    for y in look.get(offset[fam[0]] + own[fam[1]], ())
                    if first[y] == own[fam[2]]
                ]
                for q in range(2, p):
                    row = face_row[slots[q]]
                    families = [fam for fam in families if row[fam[p + 1]] == own[fam[q + 1]]]
            filled = set(zip(h.level[n], *(A.face[n][i] for i in slots)))
            unfilled = [fam for fam in families if fam not in filled]
            horns += len(families)
            missing += len(unfilled)
            if witness is None and unfilled:
                u, *ys = unfilled[0]
                witness = MissingHornFiller(n, k, u, tuple(zip(slots, ys)))
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
            buckets = _buckets(h.level[n], va[n][j], A.cells[0])
            squares += len(buckets)
            # groups come in order of their first cell, so the first group
            # of two or more cells holds the least such cell
            least = None
            for xs in buckets.values():
                if len(xs) > 1:
                    ambiguous += 1
                    if least is None:
                        least = xs
            if witness is None and least is not None:
                x = least[0]
                witness = AmbiguousLift(n, j, h.level[n][x], va[n][j][x], x, least[1])
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


class Claim(Frozen):
    """One machine-verified equivalence or implication, as a row of CLAIMS.

    The conclusion takes the record itself (an InstanceVerdicts or an
    agreement report) and reads its reports (direct, lifting, covering, kan,
    ...) as attributes; a record without one raises AttributeError.  It
    returns a boolean, or a list of failures that is empty when the claim
    holds.  A claim with a hypothesis assumes that report's verdict;
    campaigns count the records meeting it as <hypothesis>_instances.

    name is the campaign record key; hypothesis names the report whose
    verdict the claim assumes, if any; violations is the campaign document
    field listing the violating records, and agreements the one counting
    the holding records, if any; verify is the `ssetkit verify` kind whose
    exit code the claim decides; with keeps_instance, violating campaign
    records carry the verdicts and the serialized instance.
    """

    _fields = (
        "name", "hypothesis", "conclusion", "violations", "agreements", "verify", "keeps_instance"
    )
    _defaults = {"keeps_instance": True}

    def value(self, obj) -> bool | list[str] | None:
        """The conclusion on obj, or None when obj is outside the hypothesis."""
        if self.hypothesis is not None and not getattr(obj, self.hypothesis).verdict:
            return None
        return self.conclusion(obj)


def violates(value: bool | list[str] | None) -> bool:
    """Whether a value Claim.value returned is a violation."""
    return bool(value) if isinstance(value, list) else value is False


def _implication_failures(r) -> list[str]:
    chain = (  # (premise, consequence, failure)
        (r.trivial, r.covering, "trivial-covering implies covering"),
        (r.covering, r.kan, "covering implies kan"),
        (r.covering, r.direct, "covering implies separable"),
    )
    return [failure for p, q, failure in chain if p.verdict and not q.verdict]


def _injection_failures(r) -> list[str]:
    out = []
    ic = r.injection_cartesian
    if ic is not None and ic.verdict != r.trivial.verdict:
        out.append("injection-cartesian vs trivial-covering on the map")
    if r.trivial_delta.verdict != r.direct.verdict:
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
              lambda r: r.direct.verdict == r.lifting.verdict,
              "separability_disagreements", "separability_agreements", "theorem1"),
        Claim("covering_agree", "kan",
              lambda r: r.direct.verdict == r.covering.verdict,
              "covering_disagreements", "covering_agreements", "theorem2"),
        # a failing covering check on a Kan map never lacks lifts
        Claim("ambiguous_only", "kan",
              lambda r: r.covering.stats.get("missing", 0) == 0,
              "missing_lift_violations", None, "theorem2"),
        Claim("implication_failures", None, _implication_failures,
              "implication_violations", None, "chain"),
        Claim("injection_failures", None, _injection_failures,
              "injection_violations", None, "chain"),
        # the audit lists the checks whose failure witness does not replay
        Claim("witness_failures", None, lambda r: r.audit,
              "witness_failures", None, "theorem1", keeps_instance=False),
    )
}


def holds(verify: str, obj) -> bool:
    """The `ssetkit verify <verify>` verdict on one map's reports in obj.

    Every claim `verify <verify>` decides is read off obj, so obj must carry
    each report those claims read.  A single map has no witness audit: its
    audit is None, which violates nothing.
    """
    return not any(violates(c.value(obj)) for c in CLAIMS.values() if c.verify == verify)


class SeparabilityAgreement(Record):
    """Both separability characterizations, and whether they agree."""

    _fields = ("direct", "lifting")
    # a class attribute, not a field: one map is not held to the witness audit
    audit = None

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


class CoveringAgreement(Record):
    """Separability versus covering, conditional on the Kan hypothesis.

    When the map fails kan_check the instance is out of hypothesis and no
    agreement claim is made.  ambiguous_only records that a failing covering
    check on a Kan map never lacks lifts, only uniqueness.
    """

    _fields = ("kan", "direct", "covering")
    _defaults = {"direct": None, "covering": None}

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
    return SeparabilityAgreement(separable_direct(h), separable_via_lifting(h))


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
    if report.check not in _REPLAYS:
        raise ValueError(f"unknown check {report.check!r}")
    # a witness of a kind the check never reports replays False
    replay = _REPLAYS[report.check].get(type(report.witness))
    return replay is not None and replay(h, report.witness)


def _is_cell(X: TruncatedSSet, n: int, *xs: int) -> bool:
    """Is n a stored degree of X and every x an n-cell of X?

    Replay checks indices with this before reading a table, so that a
    negative index does not wrap around and a large one does not raise.
    """
    return 0 <= n <= X.truncation and all(0 <= x < X.cells[n] for x in xs)


def _recheck_leak(m: SimplicialMap, w: ComponentLeak) -> bool:
    B = m.target
    if not _is_cell(B, w.degree, w.cell):
        return False
    pb = pi0(B)
    if pb.class_of[w.degree][w.cell] != w.component:
        return False
    if w.cell in set(m.level[w.degree]):
        return False
    # m is simplicial, so an image cell's vertices are image vertices: the
    # component meets the image exactly when it meets it in degree 0
    return any(pb.vertex_class[y] == w.component for y in m.level[0])


def _recheck_clash(h: SimplicialMap, w: ComparisonClash) -> bool:
    n, x, y = w.degree, w.first, w.second
    if x == y or not _is_cell(h.source, n, x, y):
        return False
    class_of = pi0(h.source).class_of[n]
    return h.level[n][x] == h.level[n][y] and class_of[x] == class_of[y]


def _recheck_miss(h: SimplicialMap, w: ComparisonMiss) -> bool:
    A = h.source
    pa, pb = pi0(A), pi0(h.target)
    n, b, c = w.degree, w.target_cell, w.component
    if not (0 <= c < pa.count and _is_cell(h.target, n, b)):
        return False
    if pb.class_of[n][b] != pi0_map(h)[c]:
        return False  # not a pullback pair at all
    return all(
        h.level[n][x] != b or pa.class_of[n][x] != c for x in range(A.cells[n])
    )


def _recheck_missing(h: SimplicialMap, w: MissingLift) -> bool:
    A, B = h.source, h.target
    n, j, u, a = w.degree, w.vertex, w.base, w.anchor
    if not (_is_cell(B, n, u) and 0 <= j <= n and _is_cell(A, 0, a)):
        return False
    if h.level[0][a] != B.vertex(n, u, j):
        return False
    return not any(
        h.level[n][x] == u and A.vertex(n, x, j) == a for x in range(A.cells[n])
    )


def _recheck_lifting(h: SimplicialMap, w: AmbiguousLift) -> bool:
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


def _recheck_horn(h: SimplicialMap, w: MissingHornFiller) -> bool:
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


# check -> {each witness kind the check reports: its one replay}; a
# separable-direct leak lives in the fiber product of the rebuilt diagonal
_REPLAYS = {
    "separable-direct": {ComponentLeak: lambda h, w: _recheck_leak(diagonal(h).delta, w)},
    "injection-cartesian": {ComponentLeak: _recheck_leak},
    "trivial-covering": {ComparisonClash: _recheck_clash, ComparisonMiss: _recheck_miss},
    "covering": {MissingLift: _recheck_missing, AmbiguousLift: _recheck_lifting},
    "separable-lifting": {AmbiguousLift: _recheck_lifting},
    "kan": {MissingHornFiller: _recheck_horn},
}
