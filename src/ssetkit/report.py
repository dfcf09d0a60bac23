"""Check reports and the witness vocabulary shared by all classifiers.

Every classifier returns a CheckReport: a boolean verdict, scan statistics,
and on failure a witness that is self-contained enough to be re-verified by
an independent pass over the raw tables.  Witnesses are always the
lexicographically least violation in the documented scan order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


def _plain(value):
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


class _Witness:
    """Base of the witness kinds; ``kind`` names the kind in documents."""

    kind: str

    def to_doc(self) -> dict:
        """kind, then every field in declaration order, tuples as lists."""
        doc = {"kind": self.kind}
        for f in fields(self):
            doc[f.name] = _plain(getattr(self, f.name))
        return doc


@dataclass(frozen=True)
class AmbiguousLift(_Witness):
    """Two distinct lifts of ``base`` sharing the anchored vertex.

    degree n, vertex position j, base cell u in the target, anchor vertex a
    in the source, and the two offending source cells.
    """

    degree: int
    vertex: int
    base: int
    anchor: int
    first: int
    second: int

    kind = "ambiguous_lift"


@dataclass(frozen=True)
class MissingLift(_Witness):
    """No lift of ``base`` through the anchored vertex exists."""

    degree: int
    vertex: int
    base: int
    anchor: int

    kind = "missing_lift"


@dataclass(frozen=True)
class MissingHornFiller(_Witness):
    """A compatible horn over ``base`` with no filler.

    faces lists (i, y_i) for every slot i != horn, in ascending i.
    """

    degree: int
    horn: int
    base: int
    faces: tuple[tuple[int, int], ...]

    kind = "missing_horn_filler"


@dataclass(frozen=True)
class ComponentLeak(_Witness):
    """A target component that meets the image but is not contained in it.

    cell is a simplex of the stated degree lying in the component but outside
    the image.
    """

    component: int
    degree: int
    cell: int

    kind = "component_leak"


@dataclass(frozen=True)
class ComparisonMiss(_Witness):
    """A pair (target cell, source component) missed by the comparison map."""

    degree: int
    target_cell: int
    component: int

    kind = "comparison_miss"


@dataclass(frozen=True)
class ComparisonClash(_Witness):
    """Two source cells identified by the comparison map."""

    degree: int
    first: int
    second: int

    kind = "comparison_clash"


Witness = (
    AmbiguousLift
    | MissingLift
    | MissingHornFiller
    | ComponentLeak
    | ComparisonMiss
    | ComparisonClash
)


@dataclass
class CheckReport:
    """Outcome of one classifier run."""

    check: str
    verdict: bool
    witness: Witness | None
    stats: dict[str, int]

    def __bool__(self) -> bool:
        return self.verdict

    def to_doc(self) -> dict:
        doc: dict = {"check": self.check, "verdict": self.verdict, "stats": dict(self.stats)}
        if self.witness is not None:
            doc["witness"] = self.witness.to_doc()
        return doc
