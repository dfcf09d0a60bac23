"""Check reports and the witness vocabulary shared by all classifiers.

Every classifier returns a CheckReport: a boolean verdict, scan statistics,
and on failure a witness that is self-contained enough to be re-verified by
an independent pass over the raw tables.  Witnesses are always the
lexicographically least violation in the documented scan order.
"""

from __future__ import annotations

from ._record import Frozen, Record


def _plain(value):
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


class _Witness(Frozen):
    """Base of the witness kinds; ``kind`` names the kind in documents."""

    kind: str

    def to_doc(self) -> dict:
        """kind, then every field in declaration order, tuples as lists."""
        doc = {"kind": self.kind}
        for name in self._fields:
            doc[name] = _plain(getattr(self, name))
        return doc


class AmbiguousLift(_Witness):
    """Two distinct lifts of ``base`` sharing the anchored vertex.

    degree n, vertex position j, base cell u in the target, anchor vertex a
    in the source, and the two offending source cells.
    """

    _fields = ("degree", "vertex", "base", "anchor", "first", "second")
    kind = "ambiguous_lift"


class MissingLift(_Witness):
    """No lift of ``base`` through the anchored vertex exists."""

    _fields = ("degree", "vertex", "base", "anchor")
    kind = "missing_lift"


class MissingHornFiller(_Witness):
    """A compatible horn over ``base`` with no filler.

    faces lists (i, y_i) for every slot i != horn, in ascending i.
    """

    _fields = ("degree", "horn", "base", "faces")
    kind = "missing_horn_filler"


class ComponentLeak(_Witness):
    """A target component that meets the image but is not contained in it.

    cell is a simplex of the stated degree lying in the component but outside
    the image.
    """

    _fields = ("component", "degree", "cell")
    kind = "component_leak"


class ComparisonMiss(_Witness):
    """A pair (target cell, source component) missed by the comparison map."""

    _fields = ("degree", "target_cell", "component")
    kind = "comparison_miss"


class ComparisonClash(_Witness):
    """Two source cells identified by the comparison map."""

    _fields = ("degree", "first", "second")
    kind = "comparison_clash"


class CheckReport(Record):
    """Outcome of one classifier run.

    witness is None when the verdict holds, and otherwise one of the witness
    kinds above; stats counts what the scan looked at.
    """

    _fields = ("check", "verdict", "witness", "stats")

    def __bool__(self) -> bool:
        return self.verdict

    def to_doc(self) -> dict:
        doc: dict = {"check": self.check, "verdict": self.verdict, "stats": dict(self.stats)}
        if self.witness is not None:
            doc["witness"] = self.witness.to_doc()
        return doc
