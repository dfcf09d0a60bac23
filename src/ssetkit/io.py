"""JSON interchange for objects, maps and reports.

Object documents are {"truncation": N, "cells": [...], "face": [...],
"degeneracy": [...]} with the face list covering degrees 1..N and the
degeneracy list degrees 0..N-1, both indexed degree, then operator index,
then cell; all indices 0-based.  Map documents are {"source": ..., "target":
..., "level": [...]} where source and target are inline object documents or
file-reference strings.  Unknown keys are rejected.  Serialization is
canonical (sorted keys, fixed separators), so emit -> parse -> emit is
byte-identical.
"""

from __future__ import annotations

import json
import stat
from pathlib import Path

from . import core
from .core import TruncatedSSet
from .maps import SimplicialMap


class InterchangeError(ValueError):
    """Raised for documents that do not match the interchange format."""


class _FileError(InterchangeError):
    """An InterchangeError whose message begins with the file at fault."""


def _from_file(path, parse, doc, *args):
    """parse(doc, *args) for the doc read from path; an error names the file.

    An error that already names a file, such as an endpoint file's, is kept.
    """
    try:
        return parse(doc, *args)
    except _FileError:
        raise
    except InterchangeError as exc:
        raise _FileError(f"{path}: {exc}") from exc


def _require_keys(doc: dict, keys: set[str], what: str) -> None:
    if not isinstance(doc, dict):
        raise InterchangeError(f"{what} must be a JSON object")
    got = set(doc)
    if got != keys:
        unknown = sorted(got - keys)
        missing = sorted(keys - got)
        bits = []
        if unknown:
            bits.append(f"unknown keys {unknown}")
        if missing:
            bits.append(f"missing keys {missing}")
        raise InterchangeError(f"{what}: " + ", ".join(bits))


def _int_list(value) -> bool:
    """Whether value is a list of ints, none of them a bool."""
    return isinstance(value, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    )


def _int_matrix_list(value, what: str) -> list[list[list[int]]]:
    if not isinstance(value, list):
        raise InterchangeError(f"{what} must be a list")
    out = []
    for deg, rows in enumerate(value):
        if not isinstance(rows, list):
            raise InterchangeError(f"{what}[{deg}] must be a list")
        mat = []
        for i, row in enumerate(rows):
            if not _int_list(row):
                raise InterchangeError(f"{what}[{deg}][{i}] must be a list of integers")
            mat.append(list(row))
        out.append(mat)
    return out


def object_to_doc(X: TruncatedSSet) -> dict:
    return {
        "truncation": X.truncation,
        "cells": list(X.cells),
        "face": [[list(r) for r in rows] for rows in X.face[1:]],
        "degeneracy": [[list(r) for r in rows] for rows in X.degeneracy],
    }


def object_from_doc(doc: dict) -> TruncatedSSet:
    _require_keys(doc, {"truncation", "cells", "face", "degeneracy"}, "object document")
    n = doc["truncation"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InterchangeError("truncation must be a nonnegative integer")
    cells = doc["cells"]
    if not _int_list(cells) or len(cells) != n + 1:
        raise InterchangeError("cells must list one count per degree 0..truncation")
    if sum(c for c in cells if c > 0) > core.CELL_BUDGET:
        raise InterchangeError(f"cells declare more than {core.CELL_BUDGET} cells in all")
    face = _int_matrix_list(doc["face"], "face")
    if len(face) != n:
        raise InterchangeError("face must cover degrees 1..truncation")
    degeneracy = _int_matrix_list(doc["degeneracy"], "degeneracy")
    if len(degeneracy) != n:
        raise InterchangeError("degeneracy must cover degrees 0..truncation-1")
    return TruncatedSSet(n, list(cells), [[]] + face, degeneracy)


def map_to_doc(f: SimplicialMap) -> dict:
    return {
        "source": object_to_doc(f.source),
        "target": object_to_doc(f.target),
        "level": [list(r) for r in f.level],
    }


def _resolve_endpoint(value, base_dir: Path | None, what: str) -> TruncatedSSet:
    if isinstance(value, str):
        path = Path(value)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return _from_file(path, object_from_doc, load_json(path))
    if isinstance(value, dict):
        return object_from_doc(value)
    raise InterchangeError(f"{what} must be an object document or a file path")


def map_from_doc(doc: dict, base_dir: Path | None = None) -> SimplicialMap:
    _require_keys(doc, {"source", "target", "level"}, "map document")
    source = _resolve_endpoint(doc["source"], base_dir, "source")
    target = _resolve_endpoint(doc["target"], base_dir, "target")
    level = doc["level"]
    if not isinstance(level, list) or not all(map(_int_list, level)):
        raise InterchangeError("level must be a list of integer lists")
    return SimplicialMap(source, target, [list(r) for r in level])


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def load_json(path: str | Path):
    """Parse a JSON file; undecodable or malformed content names the file.

    Only a regular file is opened: any other path (a directory, a FIFO, a
    device) raises InterchangeError before it is read, so a FIFO cannot block
    and a device cannot be read without end.  OSError (a missing or
    unreadable path) propagates as is.
    """
    if not stat.S_ISREG(Path(path).stat().st_mode):
        raise _FileError(f"{path}: not a regular file")
    try:
        return json.loads(Path(path).read_text())
    # ValueError: undecodable bytes, malformed JSON, an integer too long to
    # convert; RecursionError: nested too deeply
    except (ValueError, RecursionError) as exc:
        raise _FileError(f"{path}: {exc}") from exc
