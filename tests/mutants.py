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
    # the generator's memo hands out its own object instead of a copy
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
