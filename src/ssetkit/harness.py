"""Seeded instance generation and verification campaigns.

Trials are driven by a counter-based RNG keyed by (seed, trial index), so any
subset of trials can be reproduced independently and campaigns can be merged
or parallelized without changing results.  Corrupted near-miss draws must
fail validation and are counted as skipped, never scored; every other family
must draw a valid map, and a campaign raises RuntimeError when one does not.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import time
from bisect import bisect_right
from itertools import accumulate
from typing import Hashable

from ._record import Record, replace
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
from .core import TruncatedSSet, _operators, disjoint_union, empty_sset
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

DEFAULT_MIX = {
    "gluing": 0.35,
    "cyclic-cover": 0.15,
    "fold": 0.15,
    "nerve-product": 0.20,
    "corrupted": 0.15,
}


class GenConfig(Record):
    """The parameters of a seeded campaign; to_doc is the document's config.

    Each trial draws a family from fixture_mix (nonnegative finite weights
    by family name, with a finite sum, DEFAULT_MIX unless given).  Generated
    objects have nondegenerate dimension at most max_nondegenerate_dim, and
    max_cells_per_degree is the per-degree cell budget of the standard
    pieces they are glued from.  A campaign scores the curated fixtures
    when include_curated is set, then trials 0..trials-1.
    """

    _fields = (
        "seed", "max_nondegenerate_dim", "max_cells_per_degree", "trials", "fixture_mix",
        "include_curated",
    )

    def __init__(
        self,
        seed: int = 0,
        max_nondegenerate_dim: int = 2,
        max_cells_per_degree: int = 6,
        trials: int = 100,
        fixture_mix: dict[str, float] | None = None,
        include_curated: bool = True,
    ) -> None:
        self.seed = seed
        self.max_nondegenerate_dim = max_nondegenerate_dim
        self.max_cells_per_degree = max_cells_per_degree
        self.trials = trials
        self.fixture_mix = dict(DEFAULT_MIX) if fixture_mix is None else fixture_mix
        self.include_curated = include_curated

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
        # a weight that is nan or infinite makes the sum so too
        if not math.isfinite(sum(self.fixture_mix.values())):
            raise ValueError("fixture weights must be finite, and so must their sum")
        if any(w < 0 for w in self.fixture_mix.values()):
            raise ValueError("fixture weights must be nonnegative")
        if not any(w > 0 for w in self.fixture_mix.values()):
            raise ValueError("at least one fixture weight must be positive")

    def to_doc(self) -> dict:
        """Every field in declaration order; fixture_mix is a copy."""
        fields = {name: getattr(self, name) for name in self._fields}
        return {**fields, "fixture_mix": dict(self.fixture_mix)}


_MASK64 = (1 << 64) - 1


def _philox_block(counter: int, k0: int, k1: int) -> tuple[int, int, int, int]:
    """Philox4x64-10 (Salmon et al., SC'11) of a 256-bit counter under the key (k0, k1)."""
    c0, c1, c2, c3 = (counter >> s & _MASK64 for s in (0, 64, 128, 192))
    for _ in range(10):
        p = 0xD2E7470EE14C6C93 * c0
        q = 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (q >> 64) ^ c1 ^ k0, q & _MASK64, (p >> 64) ^ c3 ^ k1, p & _MASK64
        k0 = (k0 + 0x9E3779B97F4A7C15) & _MASK64
        k1 = (k1 + 0xBB67AE8584CAA73B) & _MASK64
    return c0, c1, c2, c3


class PhiloxStream:
    """The draws of numpy.random.Generator(numpy.random.Philox(key=[k0, k1])).

    random(), integers(lo, hi) and choice(p) return, call for call, what the
    Generator's random(), integers(lo, hi) and choice(len(p), p=p) return (as
    Python numbers), for keys below 2**64.  integers takes ranges of at most
    2**32 values, which covers every draw the generator makes; a wider one
    raises ValueError, as an empty one does.
    """

    __slots__ = ("_key", "_counter", "_block", "_pos", "_half")

    def __init__(self, k0: int, k1: int) -> None:
        self._key = (k0, k1)
        self._counter = 0
        self._block = (0, 0, 0, 0)
        self._pos = 4
        self._half: int | None = None

    def next64(self) -> int:
        # the counter is incremented before each block (_philox_block reads it
        # mod 2**256), and the block's four words go out in order
        if self._pos == 4:
            self._counter += 1
            self._block = _philox_block(self._counter, *self._key)
            self._pos = 0
        self._pos += 1
        return self._block[self._pos - 1]

    def next32(self) -> int:
        """The low half of a fresh word; the next call returns its high half."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self.next64()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def random(self) -> float:
        """A float in [0, 1), a multiple of 2**-53."""
        return (self.next64() >> 11) * 2.0**-53

    def integers(self, lo: int, hi: int) -> int:
        """An integer in [lo, hi), by Lemire's method on next32."""
        n = hi - lo
        if n <= 0:
            raise ValueError("low >= high")
        if n > 1 << 32:
            raise ValueError("integers draws from at most 2**32 values")
        if n == 1:
            return lo
        m = self.next32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = self.next32() * n
        return lo + (m >> 32)

    def choice(self, p: list[float]) -> int:
        """An index below len(p) drawn with the weights p, which sum to about 1."""
        cdf = list(accumulate(p))
        return bisect_right([c / cdf[-1] for c in cdf], self.random())


def trial_rng(seed: int, trial: int) -> PhiloxStream:
    """The stream of one trial; seed and trial are taken mod 2**64."""
    return PhiloxStream(seed & _MASK64, trial & _MASK64)


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
    operators = _operators(N)
    while work:
        n, a, b = work.pop()
        if not classes[n].union(a, b):
            continue
        for name, step, degrees in operators:
            if n in degrees:
                for row in getattr(X, name)[n]:
                    work.append((n + step, row[a], row[b]))

    label = [uf.classes()[1] for uf in classes]
    # each class is numbered by its least member, which is its root
    members = [[x for x, r in enumerate(uf.parent) if r == x] for uf in classes]
    cells = [len(m) for m in members]
    tables = {
        name: [
            [[label[n + step][row[m]] for m in members[n]] for row in getattr(X, name)[n]]
            for n in degrees
        ]
        for name, step, degrees in _operators(N)
    }
    Y = TruncatedSSet(N, cells, [[]] + tables["face"], tables["degeneracy"])
    return Y, SimplicialMap(X, Y, label)


def _gen_object(rng: PhiloxStream, cfg: GenConfig) -> TruncatedSSet:
    dim = cfg.max_nondegenerate_dim
    N = dim + 1
    if rng.random() < 0.04:
        return empty_sset(N)
    budget = [cfg.max_cells_per_degree] * (dim + 1)
    pieces: list[TruncatedSSet] = []
    for _ in range(rng.integers(1, 4)):
        feasible = [
            (kind, params, prof)
            for kind, params, prof in _PIECE_CATALOG
            if len(prof) - 1 <= dim and all(prof[m] <= budget[m] for m in range(len(prof)))
        ]
        if not feasible:
            break
        kind, params, prof = feasible[rng.integers(0, len(feasible))]
        for m, c in enumerate(prof):
            budget[m] -= c
        pieces.append(_fresh(StandardObjectSpec(kind, params), N))
    X = pieces[0]  # the first pass can always take simplex:0
    for p in pieces[1:]:
        X = disjoint_union(X, p)
    pairs = _random_pairs(rng, X, rng.integers(0, max(2, X.cells[0])), edges=dim > 0)
    if pairs:
        X, _ = quotient(X, pairs)
    return X


def _random_pairs(
    rng: PhiloxStream, X: TruncatedSSet, draws: int, edges: bool
) -> list[tuple[int, int, int]]:
    """Up to draws identifications (deg, a, b) of two distinct cells of X.

    Each draw picks the degree, 1 with probability 0.2 if edges else 0,
    then two cells of that degree, and is kept if they differ.
    """
    pairs = []
    for _ in range(draws):
        deg = 1 if edges and rng.random() >= 0.8 else 0
        if X.cells[deg] >= 2:
            a = rng.integers(0, X.cells[deg])
            b = rng.integers(0, X.cells[deg])
            if a != b:
                pairs.append((deg, a, b))
    return pairs


def _family_gluing(rng: PhiloxStream, cfg: GenConfig) -> SimplicialMap:
    roll = rng.random()
    if roll < 0.5:
        X = _gen_object(rng, cfg)
        return quotient(X, _random_pairs(rng, X, rng.integers(1, 4), edges=True))[1]
    if roll < 0.8:
        X = _gen_object(rng, cfg)
        Y = _gen_object(rng, cfg)
        U = disjoint_union(X, Y)
        return SimplicialMap(X, U, [list(range(c)) for c in X.cells])
    return terminal_map(_gen_object(rng, cfg))


def _family_cyclic(rng: PhiloxStream, cfg: GenConfig) -> SimplicialMap:
    N = max(2, cfg.max_nondegenerate_dim + 1)
    p = _fresh(rng.integers(1, 5), N)
    if rng.random() < 0.3:
        q = _fresh(rng.integers(1, 5), N)
        return copair(p, q)
    return p


def _family_fold(rng: PhiloxStream, cfg: GenConfig) -> SimplicialMap:
    return fold_map(_gen_object(rng, cfg))


def _family_nerve_product(rng: PhiloxStream, cfg: GenConfig) -> SimplicialMap:
    X = _gen_object(rng, cfg)
    pick = rng.choice([0.4, 0.25, 0.25, 0.1])
    K = _fresh(_GROUPS[pick], X.truncation)
    return product(X, K).pr1


def _family_corrupted(rng: PhiloxStream, cfg: GenConfig) -> SimplicialMap:
    others = [n for n in _FAMILIES if n != "corrupted"]
    base = _FAMILIES[others[rng.integers(0, len(others))]](rng, cfg)
    A, B = base.source, base.target
    spots: list[tuple[str, int, int]] = [
        ("level", n, 0) for n in range(A.truncation + 1) if A.cells[n] and B.cells[n] >= 2
    ]
    for name, step, degrees in _operators(A.truncation):
        spots += [(name, n, step) for n in degrees if A.cells[n] and A.cells[n + step] >= 2]
    for _ in range(40 if spots else 0):
        # each attempt copies the rows it bumps; base is never edited
        kind, n, step = spots[rng.integers(0, len(spots))]
        source, level = A, list(base.level)
        if kind == "level":
            level[n] = _bumped(level[n], rng, B.cells[n])
        else:
            i = rng.integers(0, n + 1)
            tables = {"face": list(A.face), "degeneracy": list(A.degeneracy)}
            rows = tables[kind]
            rows[n] = list(rows[n])
            rows[n][i] = _bumped(rows[n][i], rng, A.cells[n + step])
            source = TruncatedSSet(A.truncation, list(A.cells), **tables)
        h = SimplicialMap(source, B, level)
        if not validate_parts(h)[1].ok:
            return h
    # nothing mutable (degenerate draw): break the map shape instead
    return SimplicialMap(A, B, base.level[:-1])


def _bumped(row: list[int], rng: PhiloxStream, size: int) -> list[int]:
    """A copy of row with one random entry moved by a random nonzero amount mod size."""
    row = list(row)
    x = rng.integers(0, len(row))
    row[x] = (row[x] + rng.integers(1, size)) % size
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


def _family_weights(mix: dict[str, float]) -> tuple[list[str], list[float]]:
    """The families of positive weight, sorted, and their weights over their sum.

    These are the floats of numpy's w / w.sum(): its sum of fewer than 8
    terms adds them one at a time, left to right.  The builtin sum does not
    on Python 3.12+, where it compensates the rounding (gh-100425).
    """
    names = sorted(n for n, w in mix.items() if w > 0)
    weights = [float(mix[n]) for n in names]
    total = functools.reduce(operator.add, weights)
    return names, [w / total for w in weights]


def gen_morphism(cfg: GenConfig, trial: int = 0) -> tuple[str, SimplicialMap]:
    """One generated (family, map) instance for the given trial index."""
    cfg.check()
    rng = trial_rng(cfg.seed, trial)
    names, p = _family_weights(cfg.fixture_mix)
    name = names[rng.choice(p)]
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


class InstanceVerdicts(Record):
    """Every classifier run on one instance, plus derived comparisons.

    audit lists the checks whose failure witness does not replay; campaign
    scoring fills it in, and it is None until then.
    """

    _fields = (
        "direct", "lifting", "covering", "kan", "trivial", "trivial_delta", "injective",
        "injection_cartesian", "audit",
    )
    _defaults = {"audit": None}

    def implication_failures(self) -> list[str]:
        return CLAIMS["implication_failures"].value(self)

    def injection_failures(self) -> list[str]:
        return CLAIMS["injection_failures"].value(self)


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


def _map_reports(v: InstanceVerdicts) -> list[CheckReport]:
    """The reports of the checks run on the map itself, injection-cartesian last if it ran."""
    reports = (v.direct, v.lifting, v.covering, v.kan, v.trivial, v.injection_cartesian)
    return [r for r in reports if r is not None]


def _verdict_doc(v: InstanceVerdicts) -> dict:
    # campaign "verdicts" keys are the check names with _ for -
    return {r.check.replace("-", "_"): r.to_doc() for r in _map_reports(v)}


def _roundtrip_verdicts_match(h: SimplicialMap, v: InstanceVerdicts) -> bool:
    """Serialize the instance, re-parse, re-run, and compare verdicts."""
    v2 = evaluate_instance(io.map_from_doc(io.map_to_doc(h)))
    return [r.verdict for r in _map_reports(v)] == [r.verdict for r in _map_reports(v2)]


# The behaviour classes an adequate corpus hits at least once each.
_ADEQUACY_CLASSES = {
    "separable-covering": lambda v: v.covering.verdict and v.direct.verdict,
    "nonseparable-kan": lambda v: v.kan.verdict and not v.direct.verdict,
    "trivial-covering": lambda v: v.trivial.verdict,
    "non-kan": lambda v: not v.kan.verdict,
}


def _trial_record(cfg: GenConfig, trial: int) -> dict:
    """Generate, validate and score one trial; JSON-ready output."""
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


class CampaignReport(Record):
    """A campaign's document and its wall time; attributes read document keys."""

    _fields = ("doc", "runtime_seconds")

    def __getattr__(self, name: str):
        doc = self.__dict__.get("doc", {})
        if name not in doc:
            raise AttributeError(name)
        return doc[name]

    def holds(self, verify: str) -> bool:
        """No record violates a claim that `ssetkit verify <verify>` decides."""
        return not any(self.doc[c.violations] for c in CLAIMS.values() if c.verify == verify)

    def to_doc(self, include_runtime: bool = True) -> dict:
        doc = {k: dict(v) if isinstance(v, dict) else v for k, v in self.doc.items()}
        if include_runtime:
            doc["runtime_seconds"] = self.runtime_seconds
        return doc


def run_campaign(cfg: GenConfig, jobs: int = 1) -> CampaignReport:
    """Score every trial (plus the curated fixtures) and aggregate.

    Aggregation is order-stable and trials are independent, so the report is
    identical for any job count; only runtime_seconds varies between runs.
    jobs must be at least 1.  At most min(jobs, trials, os.cpu_count())
    worker processes are started, and none when that is 1.
    """
    cfg.check()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    records: list[dict] = []
    if cfg.include_curated:
        for name, h in curated_instances(max(2, cfg.max_nondegenerate_dim + 1)):
            records.append(_score(name, "curated", h))
    # the pool starts all its workers at once, so start no idle ones
    workers = min(jobs, cfg.trials, os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that importing the package, as every CLI call does,
        # loads no process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records.extend(
                pool.map(_trial_record, [cfg] * cfg.trials, range(cfg.trials), chunksize=8)
            )
    else:
        records.extend(_trial_record(cfg, t) for t in range(cfg.trials))

    scored = [rec for rec in records if not rec["skipped"]]
    families: dict[str, int] = {}
    adequacy = dict.fromkeys(_ADEQUACY_CLASSES, 0)
    for rec in scored:
        families[rec["family"]] = families.get(rec["family"], 0) + 1
        for c in rec["classes"]:
            adequacy[c] += 1
    adequacy["adequate"] = all(adequacy[c] > 0 for c in _ADEQUACY_CLASSES)
    claims = _claim_fields(scored)
    doc = {
        "config": cfg.to_doc(),
        "scored": len(scored),
        "skipped": len(records) - len(scored),
        "curated": families.get("curated", 0),
        "families": families,
        **claims,
        "adequacy": adequacy,
        "ok": not any(claims[c.violations] for c in CLAIMS.values()),
    }
    return CampaignReport(doc, time.perf_counter() - started)
