"""JSON interchange format and the command-line interface."""

import copy
import dataclasses
import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ssetkit as sk
from ssetkit import checks, harness, io
from ssetkit.cli import _campaign_text, main
from ssetkit.core import validate
from ssetkit.harness import _claim_fields
from ssetkit.maps import point_inclusion, terminal_map, validate_map


def test_object_round_trip_is_byte_identical(zoo):
    for name, X in zoo.items():
        payload = io.dumps_canonical(io.object_to_doc(X))
        assert payload.endswith("\n")
        back = io.object_from_doc(json.loads(payload))
        assert back == X, name
        assert io.dumps_canonical(io.object_to_doc(back)) == payload


def test_map_round_trip(named_maps):
    for name, h in named_maps.items():
        payload = io.dumps_canonical(io.map_to_doc(h))
        back = io.map_from_doc(json.loads(payload))
        assert back.source == h.source and back.target == h.target, name
        assert back.level == h.level


def test_map_doc_with_file_references(zoo, tmp_path):
    h = terminal_map(zoo["circle"])
    (tmp_path / "src.json").write_text(io.dumps_canonical(io.object_to_doc(h.source)))
    (tmp_path / "tgt.json").write_text(io.dumps_canonical(io.object_to_doc(h.target)))
    doc = {"source": "src.json", "target": "tgt.json", "level": h.level}
    back = io.map_from_doc(doc, base_dir=tmp_path)
    assert back.source == h.source and back.target == h.target
    # without a base directory, bare references cannot resolve
    with pytest.raises((io.InterchangeError, FileNotFoundError)):
        io.map_from_doc({"source": "nowhere.json", "target": "nowhere.json", "level": []})


def _points_doc(k):
    # nothing at truncation 0 bounds the vertex count but the cell budget
    return {"truncation": 0, "cells": [k], "face": [], "degeneracy": []}


def test_interchange_rejections(zoo):
    good = io.object_to_doc(zoo["interval"])
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(io.InterchangeError):
        io.object_from_doc(bad)
    bad = dict(good)
    del bad["cells"]
    with pytest.raises(io.InterchangeError):
        io.object_from_doc(bad)
    bad = copy.deepcopy(good)
    bad["cells"][0] = True  # bools are not cell counts
    with pytest.raises(io.InterchangeError):
        io.object_from_doc(bad)
    bad = copy.deepcopy(good)
    bad["face"][0][0][0] = "x"
    with pytest.raises(io.InterchangeError):
        io.object_from_doc(bad)
    with pytest.raises(io.InterchangeError):
        io.object_from_doc([1, 2, 3])
    with pytest.raises(io.InterchangeError, match="cells"):
        io.object_from_doc(_points_doc(10**12))  # over the cell budget
    mdoc = io.map_to_doc(terminal_map(zoo["interval"]))
    bad = dict(mdoc)
    bad["levels"] = bad.pop("level")
    with pytest.raises(io.InterchangeError):
        io.map_from_doc(bad)


def test_save_and_load_json(tmp_path, zoo):
    path = tmp_path / "o.json"
    doc = io.object_to_doc(zoo["circle"])
    path.write_text(io.dumps_canonical(doc))
    assert io.load_json(path) == doc
    assert io.dumps_canonical(io.load_json(path)) == path.read_text()


def _write_object(tmp_path, X, name="obj.json"):
    path = tmp_path / name
    path.write_text(io.dumps_canonical(io.object_to_doc(X)))
    return str(path)


def _write_map(tmp_path, h, name="map.json"):
    path = tmp_path / name
    path.write_text(io.dumps_canonical(io.map_to_doc(h)))
    return str(path)


def test_cli_validate(tmp_path, zoo, capsys):
    path = _write_object(tmp_path, zoo["interval"])
    assert main(["validate", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is True and doc["has_buffer"] is True

    broken = copy.deepcopy(zoo["interval"])
    broken.degeneracy[0][0][0] ^= 1
    bad_path = _write_object(tmp_path, broken, "bad.json")
    assert main(["validate", bad_path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is False and doc["witness"]["kind"] == "identity"


def test_cli_validate_reads_has_buffer_after_an_identity_failure(tmp_path, zoo, capsys):
    # (degree, face, cell) to tamper, and has_buffer after it: a triangle whose
    # face[2][0] is tampered keeps its buffer; tampering face[3][0] of cell 4
    # leaves a degree-3 cell that no degeneracy produces, so it has none
    for n, i, x, want in ((2, 0, 0, True), (3, 0, 4, False)):
        X = copy.deepcopy(zoo["triangle"])
        X.face[n][i][x] = (X.face[n][i][x] + 1) % X.cells[n - 1]
        path = _write_object(tmp_path, X, f"tampered-{n}.json")
        assert main(["validate", path]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is False and doc["witness"]["kind"] == "identity", n
        assert doc["has_buffer"] is want is (X.nondegenerate_dim < X.truncation), n


def test_cli_validate_map(tmp_path, named_maps, capsys):
    path = _write_map(tmp_path, named_maps["curated:fold-interval"])
    assert main(["validate", path]) == 0
    assert json.loads(capsys.readouterr().out)["subject"] == "map"


def test_cli_rejects_malformed_input(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("this is not json")
    assert main(["validate", str(p)]) == 2
    assert "error:" in capsys.readouterr().err
    q = tmp_path / "unknown.json"
    q.write_text('{"truncation": 0, "cells": [1], "face": [], "degeneracy": [], "x": 1}\n')
    assert main(["validate", str(q)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_cli_cell_budget_is_invalid_input(tmp_path, monkeypatch, capsys):
    # over-budget documents go to validate only under a lowered budget
    monkeypatch.setattr(sk.core, "CELL_BUDGET", 10)
    over, at = tmp_path / "over.json", tmp_path / "at.json"
    over.write_text(io.dumps_canonical(_points_doc(11)))
    at.write_text(io.dumps_canonical(_points_doc(10)))
    assert main(["validate", str(over)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["validate", str(at)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] is True


def test_cli_directory_path_is_invalid_input(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_unreadable_files_are_invalid_input(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(bytes(range(128)) * 4)  # valid UTF-8, control characters
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"truncation": 0, "na\u00efve": 1}'.encode("latin-1"))
    long_int = tmp_path / "long-int.json"
    long_int.write_text('{"truncation": ' + "9" * 5000 + "}")  # past int parsing's limit
    for path in (binary, latin1, long_int):
        for argv in (["validate", str(path)], ["check", "covering", str(path)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")
            assert str(path) in captured.err


def test_cli_permission_denied_is_invalid_input(tmp_path, named_maps, monkeypatch, capsys):
    # as root a chmod 000 file stays readable, so the denial is simulated
    path = _write_map(tmp_path, named_maps["curated:fold-interval"])
    read_text = Path.read_text

    def denied(self, *args, **kwargs):
        if str(self) == path:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", denied)
    for argv in (["validate", path], ["check", "covering", path]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert path in captured.err


def test_cli_internal_error_exits_3(tmp_path, named_maps, monkeypatch, capsys):
    # a bug is neither a failed check (1) nor invalid input (2)
    from ssetkit import cli

    def raising_stub(h, args):
        raise RuntimeError("stub")

    monkeypatch.setitem(cli._CHECKS, "covering", raising_stub)
    path = _write_map(tmp_path, named_maps["curated:fold-interval"])
    assert main(["check", "covering", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")
    assert "RuntimeError: stub" in captured.err


def test_cli_deeply_nested_json_is_invalid_input(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    assert main(["validate", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_negative_kan_bound_is_invalid_input(tmp_path, named_maps, capsys):
    path = _write_map(tmp_path, named_maps["curated:fold-interval"])
    assert main(["check", "kan", path, "--bound", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_cli_pi0(tmp_path, zoo, capsys):
    U = sk.disjoint_union(zoo["interval"], zoo["circle"])
    path = _write_object(tmp_path, U)
    assert main(["pi0", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["components"] == 2
    assert main(["pi0", path, "--format", "text"]) == 0
    assert "components: 2" in capsys.readouterr().out


def test_cli_pi1(tmp_path, zoo, capsys):
    path = _write_object(tmp_path, zoo["circle"])
    assert main(["pi1", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objects"] == 1
    assert main(["pi1", path, "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "generators:" in text and "a0 = id_0" in text


def test_cli_check_exit_codes(tmp_path, named_maps, capsys):
    fold = _write_map(tmp_path, named_maps["curated:fold-interval"], "fold.json")
    collapse = _write_map(
        tmp_path, named_maps["curated:interval-to-point"], "collapse.json"
    )
    assert main(["check", "trivial-covering", fold]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] is True
    assert main(["check", "separable-lifting", collapse]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"]["kind"] == "ambiguous_lift"
    assert main(["check", "kan", collapse, "--bound", "1"]) == 0
    capsys.readouterr()
    assert main(["check", "kan", collapse]) == 1
    capsys.readouterr()


def test_cli_check_refuses_invalid_instances(tmp_path, zoo, capsys):
    broken = copy.deepcopy(zoo["interval"])
    broken.face[1][0][1] ^= 1
    h = terminal_map(zoo["interval"])
    bad = sk.SimplicialMap(broken, h.target, [list(r) for r in h.level])
    path = _write_map(tmp_path, bad, "invalid.json")
    assert main(["check", "covering", path]) == 2
    assert "invalid source" in capsys.readouterr().err
    # pullback and diagonal trust that a map is simplicial; the CLI checks first
    h = sk.cyclic_cover_projection(3, 2)
    level = [list(row) for row in h.level]
    level[1][0] = 1 - level[1][0]  # the other edge of the base circle
    bad = sk.SimplicialMap(h.source, h.target, level)
    assert validate_map(bad).failure.kind == "naturality"
    path = _write_map(tmp_path, bad, "unnatural.json")
    assert main(["check", "separable-direct", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_cli_verify_single_map(tmp_path, named_maps, capsys):
    cover = _write_map(tmp_path, named_maps["curated:cyclic-double-cover"], "c2.json")
    collapse = _write_map(
        tmp_path, named_maps["curated:interval-to-point"], "collapse.json"
    )
    assert main(["verify", "theorem1", cover]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agree"] is True
    assert main(["verify", "theorem2", cover]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["out_of_hypothesis"] is False and doc["ambiguous_only"] is True
    # non-Kan inputs are out of hypothesis, not failures
    assert main(["verify", "theorem2", collapse]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["out_of_hypothesis"] is True
    assert main(["verify", "chain", collapse]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == [] and doc["ok"] is True


def _flipped(check):
    """check with its verdict negated; the witness and stats are kept."""

    def flipped(h):
        report = check(h)
        return dataclasses.replace(report, verdict=not report.verdict)

    return flipped


def test_cli_verify_single_map_exits_1_when_a_claim_fails(
    tmp_path, zoo, named_maps, monkeypatch, capsys
):
    cover = _write_map(tmp_path, named_maps["curated:cyclic-double-cover"], "c2.json")
    trivial = _write_map(tmp_path, sk.identity_map(zoo["circle"]), "identity.json")
    in_hypothesis = {"out_of_hypothesis": False, "agree": False}
    chain = {"equivalence": "chain", "failures": ["trivial-covering implies covering"]}
    cases = (  # (kind, map, module and check whose verdict flips, expected document)
        ("theorem1", cover, checks, "separable_via_lifting", {"agree": False}),
        # the double cover is Kan, so its flipped covering verdict is in hypothesis
        ("theorem2", cover, checks, "covering_check", in_hypothesis),
        # the identity is a trivial covering that the flipped check calls no covering
        ("chain", trivial, harness, "covering_check", {**chain, "ok": False}),
    )
    for kind, path, module, name, want in cases:
        assert main(["verify", kind, path]) == 0, kind
        capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(module, name, _flipped(getattr(module, name)))
            assert main(["verify", kind, path]) == 1, kind
        doc = json.loads(capsys.readouterr().out)
        assert {key: doc[key] for key in want} == want, kind


def test_cli_special_files_are_invalid_input(tmp_path, zoo):
    # each call runs in its own process, so a read that blocks fails on the timeout
    tmp_path = tmp_path.resolve()  # as the map's endpoint is resolved
    fifo = tmp_path / "pipe.json"
    os.mkfifo(fifo)
    doc = io.map_to_doc(terminal_map(zoo["circle"]))
    doc["source"] = "pipe.json"  # resolved next to the map document
    path = tmp_path / "map.json"
    path.write_text(io.dumps_canonical(doc))
    for argv in (["validate", fifo], ["validate", path], ["check", "covering", path]):
        out = _fresh(["-m", "ssetkit.cli", *map(str, argv)], timeout=20)
        assert (out.returncode, out.stdout) == (2, ""), argv
        assert out.stderr == f"error: {fifo}: not a regular file\n", argv


def test_cli_verify_campaign(capsys):
    assert main(["verify", "theorem1", "--trials", "6", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["scored"] >= 6
    assert main(["verify", "chain", "--trials", "6", "--seed", "3"]) == 0
    capsys.readouterr()
    assert (
        main(["verify", "theorem2", "--trials", "6", "--seed", "3", "--format", "text"])
        == 0
    )
    text = capsys.readouterr().out
    assert text.startswith("scored:") and "ok: True" in text


def test_campaign_text_prints_every_claim_field():
    golden = Path(__file__).parent / "golden" / "campaign-seed5-trials40.json"
    doc = json.loads(golden.read_text())
    doc["missing_lift_violations"] = [{"trial": "trial:0", "family": "gluing"}]
    doc["ok"] = False
    lines = _campaign_text(doc).splitlines()
    assert lines[0] == "scored: 37 (skipped 7, curated 4)"
    assert "missing lift violations: 1" in lines
    assert "kan instances: 25" in lines and "covering agreements: 25" in lines
    assert len(lines) == len(_claim_fields([])) + 3 + len(doc["adequacy"])
    assert lines[-7:] == [
        "adequacy:",
        "  adequate: True",
        "  non-kan: 12",
        "  nonseparable-kan: 4",
        "  separable-covering: 21",
        "  trivial-covering: 16",
        "ok: False",
    ]


def test_cli_gen(tmp_path, capsys):
    assert main(["gen", "object", "--seed", "42", "--trial", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    X = io.object_from_doc(doc)
    assert validate(X).ok
    out = tmp_path / "m.json"
    assert main(["gen", "map", "--seed", "42", "--trial", "3", "-o", str(out)]) == 0
    h = io.map_from_doc(io.load_json(out))
    assert h.level is not None


def test_cli_standard(tmp_path, capsys):
    assert main(["standard", "simplex:2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["truncation"] == 3 and doc["cells"][0] == 3
    assert main(["standard", "circle", "simplex:0", "-N", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cells"] == [2, 3, 4]
    assert main(["standard", "simplex:2", "-N", "2"]) == 2  # no buffer degree
    capsys.readouterr()
    assert main(["standard", "moebius:1"]) == 2
    capsys.readouterr()
    # a missing parameter is invalid input, not a crash
    for spec in ("simplex", "boundary"):
        assert main(["standard", spec]) == 2
        assert capsys.readouterr().err == f"error: {spec} takes 1 parameter\n"
    # a parameter is -?[0-9]+: int() would also take these, and 1_0 as 10
    for spec, param in (
        ("simplex:1_0", "1_0"),
        ("simplex:\uff12", "\uff12"),
        ("simplex: 2", " 2"),
        ("simplex:2 ", "2 "),
        ("simplex:+2", "+2"),
        ("simplex:1:", ""),
    ):
        assert main(["standard", spec]) == 2
        err = capsys.readouterr().err
        assert err == f"error: spec {spec!r}: parameter {param!r} is not an integer\n"
    assert main(["standard", "simplex:-1"]) == 2
    assert capsys.readouterr().err == "error: simplex dimension must be >= 0\n"


def test_cli_argparse_rejects_unknown_choices():
    with pytest.raises(SystemExit):
        main(["check", "frobnicate", "x.json"])
    with pytest.raises(SystemExit):
        main([])
    # gen draws one instance; it takes no trial count
    with pytest.raises(SystemExit):
        main(["gen", "map", "--trials", "5"])


def test_cli_entry_point_runs():
    exe = shutil.which("ssetkit")
    cmd = [exe] if exe else [sys.executable, "-m", "ssetkit.cli"]
    out = subprocess.run(
        cmd + ["standard", "simplex:1"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["cells"] == [2, 3, 4]


_SRC = str(Path(sk.__file__).resolve().parents[1])


def _fresh(args, timeout=120):
    """Run the interpreter on args in a new process with only src on the path."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_cli_map_commands_import_no_numpy_or_pool(tmp_path, named_maps):
    path = _write_map(tmp_path, named_maps["curated:cyclic-double-cover"])
    script = f"""
import contextlib, io, sys
from ssetkit.cli import _campaign_text, main
path = {path!r}
commands = [["check", "covering"], ["check", "kan"], ["validate"],
            ["verify", "theorem1"], ["verify", "chain"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(cmd + [path]) for cmd in commands]
assert codes == [0] * len(commands), codes
heavy = ("numpy", "multiprocessing", "concurrent.futures")
print(" ".join(m for m in heavy if m in sys.modules))
"""
    out = _fresh(["-c", script])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""


def test_cli_gen_map_matches_in_process():
    for seed, trial in ((0, 0), (3, 7), (42, 31)):
        out = _fresh(["-m", "ssetkit.cli", "gen", "map", "--seed", str(seed), "--trial", str(trial)])
        assert out.returncode == 0, out.stderr
        _, h = sk.gen_morphism(sk.GenConfig(seed=seed), trial)
        assert out.stdout == io.dumps_canonical(io.map_to_doc(h)), (seed, trial)


def test_cli_campaign_with_a_process_pool():
    out = _fresh(["-m", "ssetkit.cli", "verify", "chain", "--trials", "20", "--jobs", "2"])
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["ok"] is True
