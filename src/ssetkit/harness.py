"""Seeded instance generation and verification campaigns.

Trials are driven by a counter-based RNG keyed by (seed, trial index), so any
subset of trials can be reproduced independently and campaigns can be merged
or parallelized without changing results.  Corrupted near-miss draws must
fail validation and are counted as skipped, never scored; every other family
must draw a valid map, and a campaign raises RuntimeError when one does not.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Hashable

from .checks import (
    CLAIMS,
    covering_check,
    kan_check,
    revalidate_witness,
    separable_direct,
    separable_via_lifting,
    violates,
)
from .components import _UnionFind, injection_cartesian_check, trivial_covering_check
from .core import TruncatedSSet, disjoint_union, empty_sset
from .groupoids import codiscrete_groupoid, cyclic_group_groupoid, nerve
from .limits import DiagonalData, diagonal, product
from .maps import (
    SimplicialMap,
    classify,
    copair,
    cyclic_cover_projection,
    fold_map,
    terminal_map,
    validate_parts,
)
from .report import CheckReport
from .standard import StandardObjectSpec, build_standard, circle_spec, simplex_spec
from . import io

# numpy and the process pool are imported where they are used, so importing
# the package, as every CLI call does, loads neither
if TYPE_CHECKING:
    import numpy as np

DEFAULT_MIX = {
    "gluing": 0.35,
    "cyclic-cover": 0.15,
    "fold": 0.15,
    "nerve-product": 0.20,
    "corrupted": 0.15,
}


@dataclass
class GenConfig:
    seed: int = 0
    max_nondegenerate_dim: int = 2
    max_cells_per_degree: int = 6
    trials: int = 100
    fixture_mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    include_curated: bool = True

    def check(self) -> None:
        if self.max_nondegenerate_dim < 0:
            raise ValueError("max_nondegenerate_dim must be >= 0")
        if self.max_cells_per_degree < 1:
            raise ValueError("max_cells_per_degree must be >= 1")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        unknown = set(self.fixture_mix) - set(_FAMILIES)
        if unknown:
            raise ValueError(f"unknown fixture families: {sorted(unknown)}")
        if any(w < 0 for w in self.fixture_mix.values()):
            raise ValueError("fixture weights must be nonnegative")
        if not any(w > 0 for w in self.fixture_mix.values()):
            raise ValueError("at least one fixture weight must be positive")

    def to_doc(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_doc(doc: dict) -> "GenConfig":
        return GenConfig(**{**doc, "fixture_mix": dict(doc["fixture_mix"])})


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The stream of one trial; seed and trial are taken mod 2**64."""
    import numpy as np

    # a list would go through float64 for entries of 2**63 or more
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, trial & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_PIECE_CATALOG: list[tuple[str, tuple[int, ...], list[int]]] = [
    ("simplex", (0,), [1]),
    ("simplex", (1,), [2, 1]),
    ("simplex", (2,), [3, 3, 1]),
    ("circle", (), [1, 1]),
    ("boundary", (2,), [3, 3]),
    ("horn", (2, 1), [3, 2]),
]

_GROUPS = (
    (cyclic_group_groupoid, 2),
    (cyclic_group_groupoid, 3),
    (codiscrete_groupoid, 2),
    (cyclic_group_groupoid, 1),
)


# The generator's building blocks, by (construction, truncation).  A campaign
# draws at one or two truncations, each from one entry per catalog piece,
# _GROUPS nerve and cyclic cover k = 1..4, so two truncations' worth is kept.
# The key holds the construction, never the builder, so a wrapped
# build_standard or nerve (as a tracer installs) still hits.
@functools.lru_cache(maxsize=2 * (len(_PIECE_CATALOG) + len(_GROUPS) + 4))
def _shared(construction: Hashable, truncation: int) -> TruncatedSSet | SimplicialMap:
    """What construction builds: a StandardObjectSpec, a _GROUPS pair or a cyclic cover's k."""
    if isinstance(construction, StandardObjectSpec):
        return build_standard(construction, truncation)
    if isinstance(construction, int):
        return cyclic_cover_projection(construction, truncation)
    group, n = construction
    return nerve(group(n), truncation)


def _fresh(construction: Hashable, truncation: int) -> TruncatedSSet | SimplicialMap:
    """A copy of the cached block.

    Cached values are never handed out: each caller gets fresh rows, so no
    draw shares a table, or a table derived from one, with the cache or with
    another draw.
    """
    value = _shared(construction, truncation)
    if isinstance(value, SimplicialMap):
        return SimplicialMap(_copy(value.source), _copy(value.target), _copy_rows(value.level))
    return _copy(value)


def _copy(X: TruncatedSSet) -> TruncatedSSet:
    return TruncatedSSet(
        X.truncation,
        list(X.cells),
        [_copy_rows(rows) for rows in X.face],
        [_copy_rows(rows) for rows in X.degeneracy],
    )


def _copy_rows(rows: list[list[int]]) -> list[list[int]]:
    return [row[:] for row in rows]


def quotient(
    X: TruncatedSSet, pairs: list[tuple[int, int, int]]
) -> tuple[TruncatedSSet, SimplicialMap]:
    """Quotient by the simplicial congruence generated by (degree, a, b) pairs.

    Merging two cells propagates to all their faces and degeneracies until a
    fixed point; face and degeneracy tables then descend to the classes.
    Classes are numbered by least member per degree.
    """
    N = X.truncation
    classes = [_UnionFind(c) for c in X.cells]
    work = [(n, a, b) for (n, a, b) in pairs]
    while work:
        n, a, b = work.pop()
        if not classes[n].union(a, b):
            continue
        if n >= 1:
            for i in range(n + 1):
                work.append((n - 1, X.face[n][i][a], X.face[n][i][b]))
        if n < N:
            for i in range(n + 1):
                work.append((n + 1, X.degeneracy[n][i][a], X.degeneracy[n][i][b]))

    label = [uf.classes()[1] for uf in classes]
    # each class is numbered by its least member, which is its root
    members = [[x for x, r in enumerate(uf.parent) if r == x] for uf in classes]
    cells = [len(m) for m in members]
    face: list[list[list[int]]] = [[]]
    for n in range(1, N + 1):
        face.append(
            [[label[n - 1][X.face[n][i][m]] for m in members[n]] for i in range(n + 1)]
        )
    degeneracy = []
    for n in range(N):
        degeneracy.append(
            [[label[n + 1][X.degeneracy[n][i][m]] for m in members[n]] for i in range(n + 1)]
        )
    Y = TruncatedSSet(N, cells, face, degeneracy)
    return Y, SimplicialMap(X, Y, label)


def _gen_object(rng: np.random.Generator, cfg: GenConfig) -> TruncatedSSet:
    dim = cfg.max_nondegenerate_dim
    N = dim + 1
    if rng.random() < 0.04:
        return empty_sset(N)
    budget = [cfg.max_cells_per_degree] * (dim + 1)
    pieces: list[TruncatedSSet] = []
    for _ in range(int(rng.integers(1, 4))):
        feasible = [
            (kind, params, prof)
            for kind, params, prof in _PIECE_CATALOG
            if len(prof) - 1 <= dim and all(prof[m] <= budget[m] for m in range(len(prof)))
        ]
        if not feasible:
            break
        kind, params, prof = feasible[int(rng.integers(0, len(feasible)))]
        for m, c in enumerate(prof):
            budget[m] -= c
        pieces.append(_fresh(StandardObjectSpec(kind, params), N))
    X = pieces[0] if pieces else _fresh(simplex_spec(0), N)
    for p in pieces[1:]:
        X = disjoint_union(X, p)
    pairs = _random_pairs(rng, X, int(rng.integers(0, max(2, X.cells[0]))), edges=dim > 0)
    if pairs:
        X, _ = quotient(X, pairs)
    return X


def _random_pairs(
    rng: np.random.Generator, X: TruncatedSSet, draws: int, edges: bool
) -> list[tuple[int, int, int]]:
    """Up to draws identifications (deg, a, b) of two distinct cells of X.

    Each draw picks the degree, 1 with probability 0.2 if edges else 0,
    then two cells of that degree, and is kept if they differ.
    """
    pairs = []
    for _ in range(draws):
        deg = 1 if edges and rng.random() >= 0.8 else 0
        if X.cells[deg] >= 2:
            a = int(rng.integers(0, X.cells[deg]))
            b = int(rng.integers(0, X.cells[deg]))
            if a != b:
                pairs.append((deg, a, b))
    return pairs


def _family_gluing(rng: np.random.Generator, cfg: GenConfig) -> SimplicialMap:
    roll = rng.random()
    if roll < 0.5:
        X = _gen_object(rng, cfg)
        return quotient(X, _random_pairs(rng, X, int(rng.integers(1, 4)), edges=True))[1]
    if roll < 0.8:
        X = _gen_object(rng, cfg)
        Y = _gen_object(rng, cfg)
        U = disjoint_union(X, Y)
        return SimplicialMap(X, U, [list(range(c)) for c in X.cells])
    return terminal_map(_gen_object(rng, cfg))


def _family_cyclic(rng: np.random.Generator, cfg: GenConfig) -> SimplicialMap:
    N = max(2, cfg.max_nondegenerate_dim + 1)
    p = _fresh(int(rng.integers(1, 5)), N)
    if rng.random() < 0.3:
        q = _fresh(int(rng.integers(1, 5)), N)
        return copair(p, q)
    return p


def _family_fold(rng: np.random.Generator, cfg: GenConfig) -> SimplicialMap:
    return fold_map(_gen_object(rng, cfg))


def _family_nerve_product(rng: np.random.Generator, cfg: GenConfig) -> SimplicialMap:
    X = _gen_object(rng, cfg)
    pick = rng.choice(len(_GROUPS), p=[0.4, 0.25, 0.25, 0.1])
    K = _fresh(_GROUPS[int(pick)], X.truncation)
    return product(X, K).pr1


def _family_corrupted(rng: np.random.Generator, cfg: GenConfig) -> SimplicialMap:
    others = [n for n in _FAMILIES if n != "corrupted"]
    base = _FAMILIES[others[int(rng.integers(0, len(others)))]](rng, cfg)
    A, B = base.source, base.target
    spots: list[tuple] = []
    for n in range(A.truncation + 1):
        if A.cells[n] and B.cells[n] >= 2:
            spots.append(("level", n))
    for n in range(1, A.truncation + 1):
        if A.cells[n] and A.cells[n - 1] >= 2:
            spots.append(("face", n))
    for n in range(A.truncation):
        if A.cells[n] and A.cells[n + 1] >= 2:
            spots.append(("degeneracy", n))
    for _ in range(40 if spots else 0):
        # each attempt copies the rows it bumps; base is never edited
        kind, n = spots[int(rng.integers(0, len(spots)))]
        source, level = A, list(base.level)
        if kind == "level":
            level[n] = _bumped(level[n], rng, B.cells[n])
        else:
            i = int(rng.integers(0, n + 1))
            face, degeneracy = list(A.face), list(A.degeneracy)
            if kind == "face":
                face[n] = list(face[n])
                face[n][i] = _bumped(face[n][i], rng, A.cells[n - 1])
            else:
                degeneracy[n] = list(degeneracy[n])
                degeneracy[n][i] = _bumped(degeneracy[n][i], rng, A.cells[n + 1])
            source = TruncatedSSet(A.truncation, list(A.cells), face, degeneracy)
        h = SimplicialMap(source, B, level)
        if not validate_parts(h)[1].ok:
            return h
    # nothing mutable (degenerate draw): break the map shape instead
    return SimplicialMap(A, B, base.level[:-1])


def _bumped(row: list[int], rng: np.random.Generator, size: int) -> list[int]:
    """A copy of row with one random entry moved by a random nonzero amount mod size."""
    row = list(row)
    x = int(rng.integers(0, len(row)))
    row[x] = (row[x] + int(rng.integers(1, size))) % size
    return row


_FAMILIES = {
    "gluing": _family_gluing,
    "cyclic-cover": _family_cyclic,
    "fold": _family_fold,
    "nerve-product": _family_nerve_product,
    "corrupted": _family_corrupted,
}


def gen_sset(cfg: GenConfig, trial: int = 0) -> TruncatedSSet:
    """One generated object for the given trial index."""
    cfg.check()
    return _gen_object(trial_rng(cfg.seed, trial), cfg)


def gen_morphism(cfg: GenConfig, trial: int = 0) -> tuple[str, SimplicialMap]:
    """One generated (family, map) instance for the given trial index."""
    import numpy as np

    cfg.check()
    rng = trial_rng(cfg.seed, trial)
    names = sorted(n for n, w in cfg.fixture_mix.items() if w > 0)
    weights = np.array([cfg.fixture_mix[n] for n in names], dtype=float)
    name = names[int(rng.choice(len(names), p=weights / weights.sum()))]
    return name, _FAMILIES[name](rng, cfg)


def curated_instances(truncation: int = 3) -> list[tuple[str, SimplicialMap]]:
    """The named fixture maps, one per behavior class."""
    interval = _fresh(simplex_spec(1), truncation)
    circle = _fresh(circle_spec(), truncation)
    k2 = _fresh((cyclic_group_groupoid, 2), truncation)
    return [
        ("curated:cyclic-double-cover", _fresh(2, truncation)),
        ("curated:interval-to-point", terminal_map(interval)),
        ("curated:fold-interval", fold_map(interval)),
        ("curated:circle-nerve-projection", product(circle, k2).pr1),
    ]


@dataclass
class InstanceVerdicts:
    """Every classifier run on one instance, plus derived comparisons."""

    direct: CheckReport
    lifting: CheckReport
    covering: CheckReport
    kan: CheckReport
    trivial: CheckReport
    trivial_delta: CheckReport
    injective: bool
    injection_cartesian: CheckReport | None
    # checks whose failure witness does not replay; campaign scoring fills it in
    audit: list[str] | None = None

    def implication_failures(self) -> list[str]:
        return CLAIMS["implication_failures"].value(self)

    def injection_failures(self) -> list[str]:
        return CLAIMS["injection_failures"].value(self)


# (campaign "verdicts" document key, InstanceVerdicts field) for the checks
# run on the map itself.
_MAP_CHECKS = (
    ("separable_direct", "direct"),
    ("separable_lifting", "lifting"),
    ("covering", "covering"),
    ("kan", "kan"),
    ("trivial_covering", "trivial"),
)


def evaluate_instance(h: SimplicialMap, diag: DiagonalData | None = None) -> InstanceVerdicts:
    """Run every classifier once, sharing the diagonal construction.

    diag, when given, must be diagonal(h); it is built here otherwise.
    """
    dd = diag or diagonal(h)
    direct = separable_direct(h, dd)
    injective = classify(h).injective
    return InstanceVerdicts(
        direct=direct,
        lifting=separable_via_lifting(h),
        covering=covering_check(h),
        kan=kan_check(h),
        trivial=trivial_covering_check(h),
        trivial_delta=trivial_covering_check(dd.delta),
        injective=injective,
        injection_cartesian=injection_cartesian_check(h) if injective else None,
    )


def _witness_audit(h: SimplicialMap, v: InstanceVerdicts, dd: DiagonalData) -> list[str]:
    """Re-check every failure witness; return the checks whose witness is bogus.

    dd is diagonal(h).  The diagonal's trivial-covering witness is replayed
    against dd.delta, and so is separable-direct's component leak: the
    separable-direct replay is the injection-cartesian replay on the
    diagonal, so it runs as one here instead of rebuilding the diagonal.
    """
    direct = v.direct if v.direct.verdict else replace(v.direct, check="injection-cartesian")
    replays = (  # (map the witness lives on, report, audit label), in audit order
        (dd.delta, direct, "separable-direct"),
        (h, v.lifting, "separable-lifting"),
        (h, v.covering, "covering"),
        (h, v.kan, "kan"),
        (h, v.trivial, "trivial-covering"),
        (dd.delta, v.trivial_delta, "trivial-covering(diagonal)"),
        (h, v.injection_cartesian, "injection-cartesian"),
    )
    return [
        label
        for m, rep, label in replays
        if rep is not None and not rep.verdict and not revalidate_witness(m, rep)
    ]


def _verdict_doc(v: InstanceVerdicts) -> dict:
    doc = {key: getattr(v, name).to_doc() for key, name in _MAP_CHECKS}
    if v.injection_cartesian is not None:
        doc["injection_cartesian"] = v.injection_cartesian.to_doc()
    return doc


def _roundtrip_verdicts_match(h: SimplicialMap, v: InstanceVerdicts) -> bool:
    """Serialize the instance, re-parse, re-run, and compare verdicts."""
    v2 = evaluate_instance(io.map_from_doc(io.map_to_doc(h)))
    return all(
        getattr(v, name).verdict == getattr(v2, name).verdict for _, name in _MAP_CHECKS
    )


# The behaviour classes an adequate corpus hits at least once each.
_ADEQUACY_CLASSES = {
    "separable-covering": lambda v: v.covering.verdict and v.direct.verdict,
    "nonseparable-kan": lambda v: v.kan.verdict and not v.direct.verdict,
    "trivial-covering": lambda v: v.trivial.verdict,
    "non-kan": lambda v: not v.kan.verdict,
}


def _trial_record(cfg_doc: dict, trial: int) -> dict:
    """Generate, validate and score one trial; JSON-ready output."""
    cfg = GenConfig.from_doc(cfg_doc)
    family, h = gen_morphism(cfg, trial)
    valid = validate_parts(h)[1].ok
    # a skipped trial must be a deliberate near miss, never a generator bug
    if valid == (family == "corrupted"):
        raise RuntimeError(
            f"generator invariant broken at seed {cfg.seed}, trial {trial}, family"
            f" {family!r}: drew {'a valid' if valid else 'an invalid'} map"
        )
    if not valid:
        return {"trial": trial, "family": family, "skipped": True}
    return _score(f"trial:{trial}", family, h)


_HYPOTHESES = tuple(dict.fromkeys(c.hypothesis for c in CLAIMS.values() if c.hypothesis))


def _score(label: str, family: str, h: SimplicialMap) -> dict:
    dd = diagonal(h)
    v = evaluate_instance(h, dd)
    v.audit = _witness_audit(h, v, dd)
    rec: dict = {
        "trial": label,
        "family": family,
        "skipped": False,
        "classes": [c for c, member in _ADEQUACY_CLASSES.items() if member(v)],
    }
    for hyp in _HYPOTHESES:
        rec[hyp] = getattr(v, hyp).verdict
    for c in CLAIMS.values():
        rec[c.name] = c.value(v)
    if any(c.keeps_instance and violates(rec[c.name]) for c in CLAIMS.values()):
        rec["verdicts"] = _verdict_doc(v)
        rec["instance"] = io.map_to_doc(h)
        rec["recheck_same"] = _roundtrip_verdicts_match(h, v)
    return rec


def _claim_fields(scored: list[dict]) -> dict:
    """The campaign document fields of every hypothesis and claim."""
    fields: dict = {}
    for hyp in _HYPOTHESES:
        fields[f"{hyp}_instances"] = sum(rec[hyp] for rec in scored)
    for c in CLAIMS.values():
        fields[c.violations] = [rec for rec in scored if violates(rec[c.name])]
        if c.agreements is not None:
            fields[c.agreements] = sum(rec[c.name] is True for rec in scored)
    return fields


@dataclass
class CampaignReport:
    """Aggregated campaign results; each claims field is also an attribute."""

    config: dict
    scored: int
    skipped: int
    curated: int
    families: dict[str, int]
    claims: dict  # the fields _claim_fields derives from the claims table
    adequacy: dict
    runtime_seconds: float

    def __getattr__(self, name: str):
        claims = self.__dict__.get("claims", {})
        if name not in claims:
            raise AttributeError(name)
        return claims[name]

    def holds(self, verify: str) -> bool:
        """No record violates a claim that `ssetkit verify <verify>` decides."""
        return not any(
            self.claims[c.violations] for c in CLAIMS.values() if c.verify == verify
        )

    @property
    def ok(self) -> bool:
        return all(self.holds(c.verify) for c in CLAIMS.values())

    def to_doc(self, include_runtime: bool = True) -> dict:
        doc = {
            "config": dict(self.config),
            "scored": self.scored,
            "skipped": self.skipped,
            "curated": self.curated,
            "families": dict(self.families),
            **self.claims,
            "adequacy": dict(self.adequacy),
            "ok": self.ok,
        }
        if include_runtime:
            doc["runtime_seconds"] = self.runtime_seconds
        return doc


def run_campaign(cfg: GenConfig, jobs: int = 1) -> CampaignReport:
    """Score every trial (plus the curated fixtures) and aggregate.

    Aggregation is order-stable and trials are independent, so the report is
    identical for any job count; only runtime_seconds varies between runs.
    jobs must be at least 1; at most one worker process per trial is started.
    """
    cfg.check()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    records: list[dict] = []
    if cfg.include_curated:
        for name, h in curated_instances(max(2, cfg.max_nondegenerate_dim + 1)):
            records.append(_score(name, "curated", h))
    cfg_doc = cfg.to_doc()
    if jobs > 1 and cfg.trials > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers at once, so start no idle ones
        with ProcessPoolExecutor(max_workers=min(jobs, cfg.trials)) as pool:
            records.extend(
                pool.map(_trial_record, [cfg_doc] * cfg.trials, range(cfg.trials), chunksize=8)
            )
    else:
        records.extend(_trial_record(cfg_doc, t) for t in range(cfg.trials))

    scored = [rec for rec in records if not rec["skipped"]]
    families: dict[str, int] = {}
    adequacy = dict.fromkeys(_ADEQUACY_CLASSES, 0)
    for rec in scored:
        families[rec["family"]] = families.get(rec["family"], 0) + 1
        for c in rec["classes"]:
            adequacy[c] += 1
    adequacy["adequate"] = all(adequacy[c] > 0 for c in _ADEQUACY_CLASSES)
    return CampaignReport(
        config=cfg_doc,
        scored=len(scored),
        skipped=len(records) - len(scored),
        curated=families.get("curated", 0),
        families=families,
        claims=_claim_fields(scored),
        adequacy=adequacy,
        runtime_seconds=time.perf_counter() - started,
    )
