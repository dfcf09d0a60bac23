"""Instance generator, scoring, and campaign determinism."""

import dataclasses
import json
import sys
import threading
import warnings
from pathlib import Path

import pytest

import ssetkit as sk
from ssetkit import harness
from ssetkit.cli import main
from ssetkit.core import validate
from ssetkit.harness import (
    DEFAULT_MIX,
    GenConfig,
    curated_instances,
    evaluate_instance,
    gen_morphism,
    gen_sset,
    quotient,
    run_campaign,
    trial_rng,
)
from ssetkit.io import dumps_canonical, load_json, map_to_doc, object_to_doc
from ssetkit.limits import diagonal
from ssetkit.maps import terminal_map, validate_map
from ssetkit.report import CheckReport, ComponentLeak, MissingHornFiller
from ssetkit.standard import build_standard, parse_spec

GOLDEN = Path(__file__).parent / "golden"


def test_config_checks():
    with pytest.raises(ValueError):
        GenConfig(trials=-1).check()
    with pytest.raises(ValueError):
        GenConfig(max_cells_per_degree=0).check()
    with pytest.raises(ValueError):
        GenConfig(fixture_mix={"moebius": 1.0}).check()
    with pytest.raises(ValueError):
        GenConfig(fixture_mix={"gluing": 0.0}).check()
    with pytest.raises(ValueError):
        GenConfig(fixture_mix={"gluing": -1.0}).check()
    GenConfig().check()


def test_config_round_trip():
    cfg = GenConfig(seed=9, trials=12, max_cells_per_degree=4)
    assert GenConfig.from_doc(cfg.to_doc()) == cfg


def test_trial_rng_is_stable():
    a = trial_rng(5, 3).integers(0, 1 << 30, 8).tolist()
    b = trial_rng(5, 3).integers(0, 1 << 30, 8).tolist()
    c = trial_rng(5, 4).integers(0, 1 << 30, 8).tolist()
    assert a == b
    assert a != c


def test_trial_rng_keeps_every_64_bit_seed_apart():
    # the streams of seeds below 2**63, as first drawn
    pinned = {
        0: [1047032925, 873332272, 319308249],
        5: [980523297, 770608962, 149062121],
        42: [934205217, 476469628, 184532648],
        2**62: [837231746, 55182059, 811748603],
    }
    for seed, want in pinned.items():
        assert trial_rng(seed, 1).integers(0, 1 << 30, 3).tolist() == want, seed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        streams = [
            trial_rng(seed, 0).integers(0, 1 << 30, 4).tolist()
            for seed in (-1, -1000, 2**63, 2**63 + 1, 2**64 - 1)
        ]
    assert len({tuple(s) for s in streams[:4]}) == 4
    # seeds are taken mod 2**64
    assert streams[0] == streams[4]


def test_generated_objects_validate():
    cfg = GenConfig(seed=13, trials=0)
    for t in range(40):
        X = gen_sset(cfg, t)
        report = validate(X)
        assert report.ok, t
        assert X.nondegenerate_dim <= cfg.max_nondegenerate_dim
        assert all(
            sum(X.nondegenerate(n)) <= cfg.max_cells_per_degree
            for n in range(X.truncation + 1)
        )


def test_family_mix_and_validity():
    cfg = GenConfig(seed=19, trials=0)
    seen = {}
    for t in range(120):
        family, h = gen_morphism(cfg, t)
        seen[family] = seen.get(family, 0) + 1
        objects_ok = validate(h.source).ok and validate(h.target).ok
        if family == "corrupted":
            assert not (objects_ok and validate_map(h).ok), t
        else:
            assert objects_ok and validate_map(h).ok, (t, family)
    assert set(seen) == set(DEFAULT_MIX)


def test_quotient_gluing(zoo):
    X = zoo["interval"]
    Q, proj = quotient(X, [(0, 0, 1)])
    assert validate(Q).ok
    assert validate_map(proj).ok
    assert Q.cells[0] == 1
    assert sk.pi0(Q).count == 1
    # gluing nothing is the identity
    same, proj2 = quotient(X, [])
    assert same.cells == X.cells
    assert proj2.level == [list(range(c)) for c in X.cells]


def test_quotient_is_congruence(zoo):
    # identifying one vertex pair must not merge unrelated degrees wrongly;
    # the projection commutes with every face and degeneracy by validation
    X = zoo["circle"]
    Q, proj = quotient(X, [(1, 0, 1)])
    assert validate(Q).ok and validate_map(proj).ok
    # projections are surjective degreewise
    assert all(set(r) == set(range(q)) for r, q in zip(proj.level, Q.cells))
    assert sk.pi0(Q).count == 1


def test_curated_instances_profile():
    names = [name for name, _ in curated_instances(3)]
    assert names == [
        "curated:cyclic-double-cover",
        "curated:interval-to-point",
        "curated:fold-interval",
        "curated:circle-nerve-projection",
    ]
    for name, h in curated_instances(3):
        assert validate_map(h).ok, name


def test_evaluate_instance_fields(named_maps):
    v = evaluate_instance(named_maps["curated:cyclic-double-cover"])
    assert v.covering.verdict and v.kan.verdict and v.direct.verdict
    assert not v.trivial.verdict
    assert v.injective is False
    assert v.implication_failures() == []
    assert v.injection_failures() == []

    v = evaluate_instance(named_maps["vertex-into-interval"])
    assert v.injective is True
    assert v.injection_cartesian is not None
    assert v.injection_failures() == []


def test_gen_goldens_are_stable():
    cfg = GenConfig(seed=42, trials=0)
    X = gen_sset(cfg, 0)
    assert dumps_canonical(object_to_doc(X)) == dumps_canonical(
        load_json(GOLDEN / "gen-object-seed42-trial0.json")
    )
    family, h = gen_morphism(cfg, 3)
    assert family == "gluing"
    assert dumps_canonical(map_to_doc(h)) == dumps_canonical(
        load_json(GOLDEN / "gen-map-seed42-trial3.json")
    )


def test_campaign_deterministic_and_parallel_stable():
    cfg = GenConfig(seed=5, trials=40)
    one = run_campaign(cfg).to_doc(include_runtime=False)
    two = run_campaign(cfg).to_doc(include_runtime=False)
    par = run_campaign(cfg, jobs=2).to_doc(include_runtime=False)
    assert one == two == par


def test_campaign_starts_at_most_one_worker_per_trial(monkeypatch, capsys):
    # record the pool's size instead of starting its processes
    import concurrent.futures

    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *inputs, chunksize=1):
            return map(fn, *inputs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cfg = GenConfig(seed=5, trials=2)
    serial = run_campaign(cfg).to_doc(include_runtime=False)
    for jobs, workers in ((5000, 2), (2, 2)):
        assert run_campaign(cfg, jobs=jobs).to_doc(include_runtime=False) == serial
        assert sizes.pop() == workers and not sizes, jobs
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(cfg, jobs=jobs)
        argv = ["verify", "chain", "--trials", "2", "--jobs", str(jobs)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: jobs"), jobs
    assert not sizes


def test_campaign_counts_add_up():
    cfg = GenConfig(seed=5, trials=60)
    report = run_campaign(cfg)
    assert report.scored + report.skipped == 60 + 4
    assert report.curated == 4
    assert sum(report.families.values()) == report.scored
    assert report.ok
    assert report.kan_instances <= report.scored
    assert report.covering_agreements <= report.kan_instances


def test_campaign_without_curated():
    cfg = GenConfig(seed=5, trials=10, include_curated=False)
    report = run_campaign(cfg)
    assert report.curated == 0
    assert report.scored + report.skipped == 10


def test_campaign_adequacy_classes():
    report = run_campaign(GenConfig(seed=42, trials=120))
    for cls in (
        "separable-covering",
        "nonseparable-kan",
        "trivial-covering",
        "non-kan",
    ):
        assert report.adequacy[cls] > 0, cls
    assert report.adequacy["adequate"] is True


def test_campaign_doc_shape():
    doc = run_campaign(GenConfig(seed=3, trials=8)).to_doc()
    assert doc["ok"] is True
    assert "runtime_seconds" in doc
    assert doc["config"]["seed"] == 3
    trimmed = run_campaign(GenConfig(seed=3, trials=8)).to_doc(include_runtime=False)
    assert "runtime_seconds" not in trimmed


def test_campaign_golden():
    doc = run_campaign(GenConfig(seed=5, trials=40)).to_doc(include_runtime=False)
    assert dumps_canonical(doc) == (GOLDEN / "campaign-seed5-trials40.json").read_text()


def test_bogus_witness_fails_campaign_theorem1_only(monkeypatch, capsys):
    monkeypatch.setattr(harness, "revalidate_witness", lambda h, report: False)
    argv = ["--trials", "6", "--seed", "3"]
    assert main(["verify", "theorem1", *argv]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["witness_failures"]
    assert all("instance" not in rec for rec in doc["witness_failures"])
    for kind in ("theorem2", "chain"):
        assert main(["verify", kind, *argv]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


def test_witness_audit_labels_and_order(named_maps, monkeypatch):
    replayed = []  # (the map a witness was replayed on, the report's check)
    replay = harness.revalidate_witness

    def recording(m, report):
        replayed.append((m, report.check))
        return replay(m, report)

    monkeypatch.setattr(harness, "revalidate_witness", recording)
    every_check_fails = terminal_map(build_standard(parse_spec("cyclic-cover:3"), 3))
    injective = named_maps["vertex-into-interval"]  # injective, not cartesian
    cases = (
        (every_check_fails, [
            ("delta", "injection-cartesian", "separable-direct"),
            ("h", "separable-lifting", "separable-lifting"),
            ("h", "covering", "covering"),
            ("h", "kan", "kan"),
            ("h", "trivial-covering", "trivial-covering"),
            ("delta", "trivial-covering", "trivial-covering(diagonal)"),
        ]),
        (injective, [
            ("h", "covering", "covering"),
            ("h", "kan", "kan"),
            ("h", "trivial-covering", "trivial-covering"),
            ("h", "injection-cartesian", "injection-cartesian"),
        ]),
    )
    for h, want in cases:
        dd = diagonal(h)
        v = evaluate_instance(h, dd)
        assert harness._witness_audit(h, v, dd) == []
        for f in dataclasses.fields(v):
            rep = getattr(v, f.name)
            if isinstance(rep, CheckReport) and not rep.verdict:
                # a witness of a kind the check never reports cannot replay
                if rep.check == "kan":
                    bogus = ComponentLeak(0, 0, 0)
                else:
                    bogus = MissingHornFiller(1, 0, 0, ((1, 0),))
                setattr(v, f.name, dataclasses.replace(rep, witness=bogus))
        replayed.clear()
        assert harness._witness_audit(h, v, dd) == [label for _, _, label in want]
        names = {id(h): "h", id(dd.delta): "delta"}
        assert [(names[id(m)], check) for m, check in replayed] == [
            (m, check) for m, check, _ in want
        ]


def test_disagreement_records_carry_the_instance(monkeypatch):
    lifting = harness.separable_via_lifting

    def flipped(h):
        report = lifting(h)
        return dataclasses.replace(report, verdict=not report.verdict)

    monkeypatch.setattr(harness, "separable_via_lifting", flipped)
    report = run_campaign(GenConfig(seed=3, trials=8))
    assert not report.ok
    assert report.separability_disagreements
    for rec in report.separability_disagreements:
        assert rec["separability_agree"] is False
        assert {"verdicts", "instance", "recheck_same"} <= set(rec)
        assert rec["recheck_same"] is True
        assert validate_map(sk.io.map_from_doc(rec["instance"])).ok


def test_clean_family_drawing_an_invalid_map_stops_the_campaign(monkeypatch):
    def broken_fold(rng, cfg):
        h = harness._family_fold(rng, cfg)
        return sk.SimplicialMap(h.source, h.target, h.level[:-1])

    monkeypatch.setitem(harness._FAMILIES, "fold", broken_fold)
    cfg = GenConfig(seed=3, trials=4, fixture_mix={"fold": 1.0}, include_curated=False)
    with pytest.raises(RuntimeError, match=r"seed 3, trial 0, family 'fold'"):
        run_campaign(cfg)


def test_corrupted_draws_leave_their_base_untouched(monkeypatch):
    bases = []

    def recording(family):
        def draw(rng, cfg):
            h = family(rng, cfg)
            bases.append((h, dumps_canonical(map_to_doc(h))))
            return h

        return draw

    for name, family in list(harness._FAMILIES.items()):
        if name != "corrupted":
            monkeypatch.setitem(harness._FAMILIES, name, recording(family))
    cfg = GenConfig(seed=7, fixture_mix={"corrupted": 1.0})
    for t in range(40):
        _, h = gen_morphism(cfg, t)
        assert not harness.validate_parts(h)[1].ok
    assert len(bases) == 40
    for h, before in bases:
        assert dumps_canonical(map_to_doc(h)) == before


def _rows(h):
    """Every level, face and degeneracy row of h and of its ends."""
    tables = [h.level]
    for X in (h.source, h.target):
        tables += [*X.face, *X.degeneracy]
    return [row for rows in tables for row in rows]


def test_draws_share_no_rows_with_later_draws():
    # a draw, its rows lengthened in place, then the same draw again
    cfg = GenConfig(seed=11)
    draws = [lambda t=t: gen_morphism(cfg, t)[1] for t in range(40)]
    draws += [lambda i=i: curated_instances(3)[i][1] for i in range(4)]
    for label, draw in enumerate(draws):
        h = draw()
        before = dumps_canonical(map_to_doc(h))
        for row in _rows(h):
            row.append(-1)
        assert dumps_canonical(map_to_doc(draw())) == before, label


def test_memo_is_invisible_and_bounded():
    # two truncations' worth of entries: one per construction the generator
    # draws from, the catalog pieces, the _GROUPS nerves and the covers k = 1..4
    size = 2 * (len(harness._PIECE_CATALOG) + len(harness._GROUPS) + 4)
    assert harness._shared.cache_info().maxsize == size
    warm, cold = [], []
    cfgs = [
        GenConfig(seed=seed, max_nondegenerate_dim=dim) for seed in range(4) for dim in range(4)
    ]
    for cfg in cfgs:
        for t in range(60):
            harness._shared.cache_clear()
            cold.append(map_to_doc(gen_morphism(cfg, t)[1]))
    for cfg in cfgs:
        for t in range(60):
            warm.append(map_to_doc(gen_morphism(cfg, t)[1]))
            assert harness._shared.cache_info().currsize <= size
    assert warm == cold


def _run_threads(target, count):
    """Run target(0..count-1) in threads, switching between them often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(w,)) for w in range(count)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)


def test_memo_under_threads():
    # four threads draw at three truncations in turn, more than the cache
    # keeps; each must draw what one thread alone draws
    jobs = [(GenConfig(seed=2, max_nondegenerate_dim=d), t) for t in range(15) for d in range(3)]
    want = [map_to_doc(gen_morphism(cfg, t)[1]) for cfg, t in jobs]
    got = {}

    def draw_all(w):
        order = jobs[w:] + jobs[:w]
        got[w] = [map_to_doc(gen_morphism(cfg, t)[1]) for cfg, t in order]

    harness._shared.cache_clear()
    _run_threads(draw_all, 4)
    assert [got[w] for w in range(4)] == [want[w:] + want[:w] for w in range(4)]

    # four threads ask at once for one construction: each gets its own copy
    spec = parse_spec("simplex:1")

    def probe(w):
        got[w] = harness._fresh(spec, 9)

    harness._shared.cache_clear()
    _run_threads(probe, 4)
    assert all(got[w] == build_standard(spec, 9) for w in range(4))
    assert len({id(got[w].cells) for w in range(4)}) == 4
    assert len({id(got[w].face[1][0]) for w in range(4)}) == 4
