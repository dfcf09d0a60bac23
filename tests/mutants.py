"""Mutation gate: every mutant of src/ must make one of its named tests fail.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

Each row of MUTANTS is (file under src/ssetkit, exact snippet, replacement,
ids of the tests that must fail).  For each mutant the runner copies src/
to a temporary directory, replaces the snippet in the copy and runs only
the named tests against it.  A snippet that does not occur exactly once is
an error, so a refactor cannot silently retire a mutant; so is a named test
that fails on the unmutated source.  The gate fails when a mutant survives,
that is when all its tests pass.  It is kept out of tier-1: each mutant
costs one pytest start-up.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_VERIFY_EXITS_1 = "tests/test_io_cli.py::test_cli_verify_single_map_exits_1_when_a_claim_fails"
_AUDIT_LABELS = "tests/test_harness.py::test_witness_audit_labels_and_order"
_STANDARD_DOCUMENTS = "tests/test_standard.py::test_standard_documents_are_unchanged"
_COMPONENT_CHECKS = "tests/test_components.py::test_component_checks_match_references"
_MEMO_BOUNDED = "tests/test_harness.py::test_memo_is_invisible_and_bounded"
_TAMPERED_WITNESSES = "tests/test_checks.py::test_tampered_witnesses_fail_revalidation"
_SHAPE_ERRORS = "tests/test_core.py::test_validate_catches_shape_errors"
_KAN_REFERENCE = "tests/test_checks.py::test_kan_check_matches_reference"
_FIBER_PI0 = "tests/test_limits.py::test_pi0_of_fiber_product_from_pairs"

MUTANTS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    # a claim row reads a report the record does not have
    (
        "checks.py",
        "lambda r: r.direct.verdict == r.lifting.verdict",
        "lambda r: r.direct.verdict == r.lifitng.verdict",
        (_VERIFY_EXITS_1,),
    ),
    # a claim row reads the wrong report, so it can never fail
    (
        "checks.py",
        "lambda r: r.direct.verdict == r.lifting.verdict",
        "lambda r: r.direct.verdict == r.direct.verdict",
        (_VERIFY_EXITS_1,),
    ),
    (
        "checks.py",
        "lambda r: r.direct.verdict == r.covering.verdict",
        "lambda r: r.direct.verdict == r.kan.verdict",
        (_VERIFY_EXITS_1,),
    ),
    (
        "checks.py",
        '(r.trivial, r.covering, "trivial-covering implies covering")',
        '(r.trivial, r.kan, "trivial-covering implies covering")',
        (_VERIFY_EXITS_1,),
    ),
    # no value, as for a map without a witness audit, counts as a violation
    (
        "checks.py",
        "return bool(value) if isinstance(value, list) else value is False",
        "return bool(value) if isinstance(value, list) else value is not True",
        ("tests/test_io_cli.py::test_cli_verify_single_map",),
    ),
    # the audit forgets the diagonal's trivial-covering witness
    (
        "harness.py",
        '        (dd.delta, v.trivial_delta, "trivial-covering(diagonal)"),\n',
        "",
        (_AUDIT_LABELS,),
    ),
    # the audit replays separable-direct on the map instead of its diagonal
    (
        "harness.py",
        '(dd.delta, direct, "separable-direct")',
        '(h, direct, "separable-direct")',
        (_AUDIT_LABELS,),
    ),
    # nerve cells ordered without where their identities sit
    (
        "groupoids.py",
        "return (len(kept), kept or (o,), tau)",
        "return (len(kept), kept or (o,))",
        (_STANDARD_DOCUMENTS,),
    ),
    # s_i inserts the identity of the first object instead of vertex i
    (
        "groupoids.py",
        "(G.identity[vertex(o, w, i)],)",
        "(G.identity[o],)",
        (_STANDARD_DOCUMENTS,),
    ),
    # a collapsed edge of a cyclic cover goes to its source vertex
    (
        "standard.py",
        "return ((0,) * len(psi), 0, (c + psi[0]) % k)",
        "return ((0,) * len(psi), 0, c)",
        (_STANDARD_DOCUMENTS,),
    ),
    # load_json opens special files again (a FIFO blocks until the test's timeout)
    (
        "io.py",
        '    if not stat.S_ISREG(Path(path).stat().st_mode):\n'
        '        raise InterchangeError(f"{path}: not a regular file")\n',
        "",
        ("tests/test_io_cli.py::test_cli_special_files_are_invalid_input",),
    ),
    # earlier mutations, from CHANGES.md
    # the covering witness is the last failing square, not the first
    (
        "checks.py",
        "                        if witness is None:\n"
        "                            witness = MissingLift(n, j, u, a)\n",
        "                        witness = MissingLift(n, j, u, a)\n",
        ("tests/test_checks.py::test_checks_match_oracles_on_generated",),
    ),
    # kan_check drops the fused slot-1 compatibility test
    (
        "checks.py",
        "                    if first[y] == own[fam[2]]\n",
        "",
        ("tests/test_checks.py::test_kan_check_matches_reference",),
    ),
    # a Philox key given as a list goes through float64
    (
        "harness.py",
        "dtype=np.uint64)",
        ")",
        ("tests/test_harness.py::test_trial_rng_keeps_every_64_bit_seed_apart",),
    ),
    # the generator's cache hands out its own object instead of a copy
    (
        "harness.py",
        "    return _copy(value)\n",
        "    return value\n",
        ("tests/test_harness.py::test_draws_share_no_rows_with_later_draws",),
    ),
    (
        "core.py",
        "    if points < 0:\n",
        "    if False:\n",
        ("tests/test_core.py::test_discrete_rejects_negative_arguments",),
    ),
    # covering counts its squares per base cell, not per anchored square
    (
        "checks.py",
        "                for a in anchors.get(vb[n][u][j], ()):\n"
        "                    squares += 1\n",
        "                squares += 1\n"
        "                for a in anchors.get(vb[n][u][j], ()):\n",
        ("tests/test_checks.py::test_checks_match_oracles_on_generated",),
    ),
    # separable-lifting counts lifted cells as squares
    (
        "checks.py",
        "squares += len(buckets)",
        "squares += sum(map(len, buckets.values()))",
        ("tests/test_checks.py::test_lift_checks_match_reference",),
    ),
    # kan counts only the horns that have a filler
    (
        "checks.py",
        "horns += len(families)",
        "horns += len(families) - len(unfilled)",
        ("tests/test_checks.py::test_kan_check_matches_reference",),
    ),
    # a validator reports the last differing simplex of a row, not the first
    (
        "core.py",
        "return next(x for x, (g, w) in enumerate(zip(got, want)) if g != w)",
        "return max(x for x, (g, w) in enumerate(zip(got, want)) if g != w)",
        ("tests/test_core.py::test_validate_matches_oracle_on_every_single_entry_tamper",),
    ),
    # lazy rows copy and pickle as themselves, not as the list of their rows
    (
        "components.py",
        "    def __reduce_ex__(self, protocol):\n"
        "        # copy.copy, copy.deepcopy and pickle: the plain list of the rows\n"
        "        return list, (list(self),)\n",
        "",
        ("tests/test_limits.py::test_fiber_product_is_plain_objects",),
    ),
    # trivial-covering counts its misses against the source's cells, not the pairs taken
    (
        "components.py",
        "misses += pairs_n - len(taken)",
        "misses += pairs_n - A.cells[n]",
        (_COMPONENT_CHECKS,),
    ),
    # injection-cartesian counts every component of the target as met
    (
        "components.py",
        '"meeting": len(meeting),',
        '"meeting": pb.count,',
        (_COMPONENT_CHECKS,),
    ),
    # the ds law reports the first failing row of an (n, j), not its least (x, i)
    (
        "core.py",
        "x, i = min(bad)",
        "x, i = bad[0]",
        ("tests/test_core.py::test_ds_law_reports_least_x_before_i",),
    ),
    # a spec parameter may hold underscores, so simplex:1_0 builds simplex:10
    (
        "standard.py",
        're.fullmatch("-?[0-9]+", p)',
        're.fullmatch("-?[0-9_]+", p)',
        ("tests/test_io_cli.py::test_cli_standard",),
    ),
    # nondegenerate tests only the i-row 0
    (
        "core.py",
        "        for i in range(n):\n"
        "            round_trip = map(",
        "        for i in range(min(n, 1)):\n"
        "            round_trip = map(",
        ("tests/test_core.py::test_ez_normal_form",),
    ),
    # a slice of lazy rows ignores its bounds
    (
        "components.py",
        "return [self[i] for i in range(self._degrees)[n]]",
        "return [self[i] for i in range(self._degrees)]",
        ("tests/test_properties.py::test_lazy_rows_read_like_the_list_of_their_rows",),
    ),
    # the generator's cache is unbounded
    (
        "harness.py",
        "maxsize=2 * (len(_PIECE_CATALOG) + len(_GROUPS) + 4)",
        "maxsize=None",
        (_MEMO_BOUNDED,),
    ),
    # the generator's nerves are built at truncation 3 whatever is asked
    (
        "harness.py",
        "nerve(group(n), truncation)",
        "nerve(group(n), 3)",
        (_MEMO_BOUNDED,),
    ),
    # object documents declare any number of cells
    (
        "io.py",
        "    if sum(c for c in cells if c > 0) > core.CELL_BUDGET:\n",
        "    if False:\n",
        ("tests/test_io_cli.py::test_interchange_rejections",),
    ),
    # a component leak replays without its cell in the named component
    (
        "checks.py",
        "    if pb.class_of[w.degree][w.cell] != w.component:\n",
        "    if False:\n",
        (_TAMPERED_WITNESSES,),
    ),
    # a component leak replays with its cell in the image
    (
        "checks.py",
        "    if w.cell in set(m.level[w.degree]):\n",
        "    if False:\n",
        (_TAMPERED_WITNESSES,),
    ),
    # a comparison miss replays for a cell and a component that are not a pullback pair
    (
        "checks.py",
        "        if pb.class_of[n][b] != pi0_map(h)[c]:\n",
        "        if False:\n",
        (_TAMPERED_WITNESSES,),
    ),
    # a missing lift replays with its anchor off the base cell's j-th vertex
    (
        "checks.py",
        "        if h.level[0][a] != B.vertex(n, u, j):\n",
        "        if False:\n",
        (_TAMPERED_WITNESSES,),
    ),
    # a missing horn filler replays with a face off the base cell's face
    (
        "checks.py",
        "        if h.level[n - 1][faces[i]] != B.face[n][i][u]:\n",
        "        if False:\n",
        (_TAMPERED_WITNESSES,),
    ),
    # a missing horn filler replays with incompatible faces
    (
        "checks.py",
        "                if A.face[n - 1][i][faces[j]] != A.face[n - 1][j - 1][faces[i]]:\n",
        "                if False:\n",
        (_TAMPERED_WITNESSES,),
    ),
    # the shape check takes any number of degeneracy rows
    (
        "core.py",
        "        if len(X.degeneracy[n]) != n + 1:\n",
        "        if False:\n",
        (_SHAPE_ERRORS,),
    ),
    # the shape check takes negative cell counts
    (
        "core.py",
        "len(X.cells) != N + 1 or any(c < 0 for c in X.cells)",
        "len(X.cells) != N + 1",
        (_SHAPE_ERRORS,),
    ),
    # the replay reads a cell's vertices through d_0 only
    (
        "core.py",
        "c = self.face[deg][1][c]",
        "c = self.face[deg][0][c]",
        (
            "tests/test_checks.py::test_witnesses_revalidate_on_generated",
            "tests/test_checks.py::test_out_of_range_witnesses_do_not_replay",
        ),
    ),
    # kan takes its slot-1 candidates in reverse
    (
        "checks.py",
        "for y1 in look.get(off + own[y0], ())",
        "for y1 in reversed(look.get(off + own[y0], ()))",
        (_KAN_REFERENCE,),
    ),
    # kan skips base cell 0
    (
        "checks.py",
        "for u, (b, off) in enumerate(zip(base[0], offset))",
        "for u, (b, off) in enumerate(zip(base[0], offset)) if u",
        (_KAN_REFERENCE,),
    ),
    # fiber-product face tables hold a fresh int per entry
    (
        "limits.py",
        "ids[n - 1]",
        "list(range(cells[n - 1]))",
        ("tests/test_limits.py::test_pullback_tables_share_cell_ints",),
    ),
    # the leak witness is the last cell outside the image, not the first
    (
        "components.py",
        "y = next(",
        "y = max(",
        (_COMPONENT_CHECKS,),
    ),
    # the miss witness is the last missed pair, not the first
    (
        "components.py",
        "b, d = next(",
        "b, d = max(",
        (_COMPONENT_CHECKS,),
    ),
    # union_edges keeps the greater root
    (
        "components.py",
        "            if a < b:\n"
        "                p[b] = a\n"
        "            elif b < a:\n",
        "            if a > b:\n"
        "                p[b] = a\n"
        "            elif b > a:\n",
        ("tests/test_components.py::test_union_edges_matches_union_per_edge",),
    ),
    # the fiber product's cell counts take m_f and m_g the wrong way round
    (
        "limits.py",
        "            kind_f, mf = last_vertex_counts(f, n)\n"
        "            kind_g, mg = (kind_f, mf) if g is f else last_vertex_counts(g, n)\n",
        "            kind_f, mf = last_vertex_counts(g, n)\n"
        "            kind_g, mg = (kind_f, mf) if g is f else last_vertex_counts(f, n)\n",
        (_FIBER_PI0,),
    ),
    # the fiber product's components forget their non-loop edges
    (
        "limits.py",
        "proper[b] = [y for y in ys if y0[y] != y1[y]]",
        "proper[b] = []",
        (_FIBER_PI0,),
    ),
    # the fiber product's cell counts drop the multiplicity of each kind pair
    (
        "limits.py",
        "total[c] += times * sum(",
        "total[c] += sum(",
        (_FIBER_PI0,),
    ),
    # validate_parts validates the target before the source
    (
        "maps.py",
        'for label, X in (("source", f.source), ("target", f.target)):',
        'for label, X in (("target", f.target), ("source", f.source)):',
        ("tests/test_maps.py::test_validate_parts_matches_validate_map_on_malformed_maps",),
    ),
)


def _pytest(src: Path, tests: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )


def _mutated_copy(tmp: Path, file: str, snippet: str, replacement: str) -> Path:
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "ssetkit" / file
    text = path.read_text()
    path.write_text(text.replace(snippet, replacement))
    return src


def main() -> int:
    stale = [
        (i, file)
        for i, (file, snippet, _, _) in enumerate(MUTANTS)
        if (ROOT / "src" / "ssetkit" / file).read_text().count(snippet) != 1
    ]
    if stale:
        for i, file in stale:
            print(f"error: mutant {i}: its snippet does not occur exactly once in {file}")
        return 2
    tests = sorted({t for *_, named in MUTANTS for t in named})
    baseline = _pytest(ROOT / "src", tests)
    if baseline.returncode != 0:
        print(baseline.stdout + baseline.stderr)
        print("error: the named tests must pass on the unmutated source")
        return 2
    survived = errors = 0
    for i, (file, snippet, replacement, named) in enumerate(MUTANTS):
        with tempfile.TemporaryDirectory() as tmp:
            out = _pytest(_mutated_copy(Path(tmp), file, snippet, replacement), list(named))
        # pytest exits 1 when a test failed; other codes mean it could not run them
        outcome = {0: "SURVIVED", 1: "killed"}.get(out.returncode, "error")
        survived += outcome == "SURVIVED"
        errors += outcome == "error"
        first = (replacement.strip().splitlines() or ["(deleted)"])[0]
        change = f"{snippet.strip().splitlines()[0]} -> {first}"
        print(f"mutant {i} ({file}: {change}): {outcome}")
        if outcome == "error":
            print(out.stdout + out.stderr)
    print(f"{len(MUTANTS)} mutants: {survived} survived, {errors} errors")
    return 1 if survived or errors else 0


if __name__ == "__main__":
    sys.exit(main())
