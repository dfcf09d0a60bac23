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
_INTERCHANGE_REJECTIONS = "tests/test_io_cli.py::test_interchange_rejections"
_MALFORMED_DOCUMENTS = "tests/test_io_cli.py::test_cli_malformed_documents_are_invalid_input"
_FILE_AT_FAULT = "tests/test_io_cli.py::test_cli_errors_name_the_file_at_fault"
_CAMPAIGN_REPORT = "tests/test_harness.py::test_campaign_report_is_its_document"
_IDENTITY_TAMPERS = "tests/test_core.py::test_validate_matches_oracle_on_every_single_entry_tamper"
_REPLAY_MATRIX = "tests/test_checks.py::test_each_check_replays_only_the_witness_kinds_it_reports"
_STANDARD_BUDGET = "tests/test_standard.py::test_cell_counts_are_made_before_building"
_NERVE_BUDGET = "tests/test_groupoids.py::test_nerve_cells_are_counted_before_building"
_FIBER_BUDGET = "tests/test_limits.py::test_fiber_product_cells_are_counted_before_building"
_RECORDS = "tests/test_records.py::test_record_semantics"
_COPIES = "tests/test_components.py::test_copies_never_carry_derived_tables"
_STREAM = "tests/test_rng.py::test_stream_matches_numpy"
_CYCLIC_LEVEL = "tests/test_standard.py::test_cyclic_cover_level_is_the_keyed_level"

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
    # a cyclic cover's edge cells lie one cell too low over the circle
    (
        "maps.py",
        "list(range(1, m + 1)) * k",
        "list(range(m)) * k",
        (_CYCLIC_LEVEL,),
    ),
    # load_json opens special files again (a FIFO blocks until the test's timeout)
    (
        "io.py",
        '    if not stat.S_ISREG(Path(path).stat().st_mode):\n'
        '        raise _FileError(f"{path}: not a regular file")\n',
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
    # the key is not masked to 64 bits, so seed -1 is not seed 2**64 - 1
    (
        "harness.py",
        "PhiloxStream(seed & _MASK64, trial & _MASK64)",
        "PhiloxStream(seed, trial & _MASK64)",
        ("tests/test_harness.py::test_trial_rng_keeps_every_64_bit_seed_apart",),
    ),
    # the counter is bumped after its block, so the stream starts at block 0
    (
        "harness.py",
        "            self._counter += 1\n"
        "            self._block = _philox_block(self._counter, *self._key)\n",
        "            self._block = _philox_block(self._counter, *self._key)\n"
        "            self._counter += 1\n",
        (_STREAM,),
    ),
    # next32 hands out the high half of a word first
    (
        "harness.py",
        "        self._half = word >> 32\n        return word & 0xFFFFFFFF\n",
        "        self._half = word & 0xFFFFFFFF\n        return word >> 32\n",
        (_STREAM,),
    ),
    # integers keeps Lemire's biased draws instead of drawing again
    (
        "harness.py",
        "            while m & 0xFFFFFFFF < threshold:\n"
        "                m = self.next32() * n\n",
        "",
        (_STREAM,),
    ),
    # the family weights' total is rounded once (fsum), not term by term as
    # numpy sums fewer than 8 terms; the builtin sum is as wrong on 3.12+
    (
        "harness.py",
        "functools.reduce(operator.add, weights)",
        "math.fsum(weights)",
        ("tests/test_rng.py::test_family_weights_are_numpys",),
    ),
    # random() keeps 52 bits, not 53
    (
        "harness.py",
        "(self.next64() >> 11) * 2.0**-53",
        "(self.next64() >> 12) * 2.0**-53",
        (_STREAM,),
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
        "                for a in anchors.get(vb[n][j][u], ()):\n"
        "                    squares += 1\n",
        "                squares += 1\n"
        "                for a in anchors.get(vb[n][j][u], ()):\n",
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
        "    if pb.class_of[n][b] != pi0_map(h)[c]:\n",
        "    if False:\n",
        (_TAMPERED_WITNESSES,),
    ),
    # a missing lift replays with its anchor off the base cell's j-th vertex
    (
        "checks.py",
        "    if h.level[0][a] != B.vertex(n, u, j):\n",
        "    if False:\n",
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
    # the shape check takes any number of face or degeneracy rows
    (
        "core.py",
        "            if len(table[n]) != n + 1:\n",
        "            if False:\n",
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
    # fiber-product face and degeneracy tables hold a fresh int per entry
    (
        "limits.py",
        "ids[n + step]",
        "list(range(cells[n + step]))",
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
    # the fiber product's cell counts read each vertex pair's second vertex twice
    (
        "limits.py",
        "compress(left(0), keep)",
        "compress(right(0), keep)",
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
    # the merged face/degeneracy loops read degree n where they mean n + step
    (
        "core.py",
        "max(row) >= X.cells[n + step]",
        "max(row) >= X.cells[n]",
        (_SHAPE_ERRORS,),
    ),
    (
        "maps.py",
        "f.level[n + step].__getitem__",
        "f.level[n].__getitem__",
        ("tests/test_maps.py::test_validate_map_matches_oracle_on_every_single_entry_tamper",),
    ),
    (
        "core.py",
        "v + X.cells[n + step]",
        "v + X.cells[n]",
        ("tests/test_core.py::test_disjoint_union_counts_and_components",),
    ),
    (
        "harness.py",
        "label[n + step]",
        "label[n]",
        ("tests/test_harness.py::test_generated_objects_validate",),
    ),
    (
        "harness.py",
        "_bumped(rows[n][i], rng, A.cells[n + step])",
        "_bumped(rows[n][i], rng, A.cells[n])",
        ("tests/test_maps.py::test_validators_match_oracles_on_tampered_draws",),
    ),
    # input guards: without each, a malformed document is not invalid input (exit 2)
    (
        "io.py",
        "    if not isinstance(value, list):\n",
        "    if False:\n",
        (_INTERCHANGE_REJECTIONS, _MALFORMED_DOCUMENTS),
    ),
    (
        "io.py",
        "        if not isinstance(rows, list):\n",
        "        if False:\n",
        (_INTERCHANGE_REJECTIONS, _MALFORMED_DOCUMENTS),
    ),
    (
        "io.py",
        "    if not isinstance(n, int) or isinstance(n, bool) or n < 0:\n",
        "    if False:\n",
        (_INTERCHANGE_REJECTIONS, _MALFORMED_DOCUMENTS),
    ),
    (
        "io.py",
        "    if len(face) != n:\n",
        "    if False:\n",
        (_INTERCHANGE_REJECTIONS, _MALFORMED_DOCUMENTS),
    ),
    (
        "io.py",
        "    if len(degeneracy) != n:\n",
        "    if False:\n",
        (_INTERCHANGE_REJECTIONS, _MALFORMED_DOCUMENTS),
    ),
    (
        "io.py",
        '    raise InterchangeError(f"{what} must be an object document or a file path")\n',
        "",
        (_INTERCHANGE_REJECTIONS, _MALFORMED_DOCUMENTS),
    ),
    (
        "io.py",
        "    if not isinstance(level, list) or not all(map(_int_list, level)):\n",
        "    if False:\n",
        (_INTERCHANGE_REJECTIONS, _MALFORMED_DOCUMENTS),
    ),
    # bools pass for integers in cells, face rows and level rows
    (
        "io.py",
        "isinstance(v, int) and not isinstance(v, bool) for v in value",
        "isinstance(v, int) for v in value",
        (_INTERCHANGE_REJECTIONS,),
    ),
    (
        "maps.py",
        "        if len(row) != A.cells[n]:\n",
        "        if False:\n",
        (_MALFORMED_DOCUMENTS,),
    ),
    (
        "cli.py",
        "    if not rep.ok:\n"
        '        raise io.InterchangeError(f"{path}: invalid object: {rep.failure}")\n',
        "",
        (_MALFORMED_DOCUMENTS,),
    ),
    (
        "io.py",
        "    if not isinstance(doc, dict):\n",
        "    if False:\n",
        (_MALFORMED_DOCUMENTS, _FILE_AT_FAULT),
    ),
    # verify chain never fails on the injection claims
    (
        "checks.py",
        "    if ic is not None and ic.verdict != r.trivial.verdict:\n",
        "    if False:\n",
        (_VERIFY_EXITS_1,),
    ),
    (
        "checks.py",
        "    if r.trivial_delta.verdict != r.direct.verdict:\n",
        "    if False:\n",
        (_VERIFY_EXITS_1,),
    ),
    # a fiber product at truncation 0 looks for edges
    (
        "limits.py",
        "        if not N:\n"
        "            return heads, tails\n",
        "",
        ("tests/test_limits.py::test_pullback_matches_reference",),
    ),
    # the generator takes a negative dimension
    (
        "harness.py",
        "        if self.max_nondegenerate_dim < 0:\n",
        "        if False:\n",
        ("tests/test_harness.py::test_config_checks",),
    ),
    # a report of an unknown check replays False instead of raising
    (
        "checks.py",
        '    raise ValueError(f"unknown check {report.check!r}")\n',
        "    return False\n",
        (_TAMPERED_WITNESSES,),
    ),
    # the merged identity scan: d_i d_j checked for i = j too, or against the wrong side
    (
        "core.py",
        "for i in range(j + (step > 0)):",
        "for i in range(j):",
        (_IDENTITY_TAMPERS,),
    ),
    (
        "core.py",
        "op[n + step][j + step]",
        "op[n + step][j]",
        (_IDENTITY_TAMPERS,),
    ),
    (
        "core.py",
        'zip(_operators(N), ("dd", "ss"))',
        'zip(_operators(N), ("ss", "dd"))',
        (_IDENTITY_TAMPERS,),
    ),
    # the merged key tables look up the wrong degree
    (
        "standard.py",
        "index[m + step]",
        "index[m]",
        (_STANDARD_DOCUMENTS,),
    ),
    # an ambiguous lift replays for the covering check without being checked
    (
        "checks.py",
        '"covering": {MissingLift: _recheck_missing, AmbiguousLift: _recheck_lifting},',
        '"covering": {MissingLift: _recheck_missing, AmbiguousLift: lambda h, w: True},',
        ("tests/test_checks.py::test_out_of_range_witnesses_do_not_replay",),
    ),
    # a campaign report reads any name, or hands out its own tables
    (
        "harness.py",
        "            raise AttributeError(name)\n",
        "            return None\n",
        (_CAMPAIGN_REPORT,),
    ),
    (
        "harness.py",
        "dict(v) if isinstance(v, dict) else v",
        "v",
        (_CAMPAIGN_REPORT,),
    ),
    (
        "harness.py",
        'doc = self.__dict__.get("doc", {})',
        "doc = self.doc",
        (_CAMPAIGN_REPORT,),
    ),
    # an error does not name the file at fault, or names two
    (
        "io.py",
        "    except _FileError:\n"
        "        raise\n",
        "",
        (_FILE_AT_FAULT,),
    ),
    (
        "io.py",
        "return _from_file(path, object_from_doc, load_json(path))",
        "return object_from_doc(load_json(path))",
        (_FILE_AT_FAULT,),
    ),
    (
        "cli.py",
        "validate(io._from_file(args.path, io.object_from_doc, doc))",
        "validate(io.object_from_doc(doc))",
        (_FILE_AT_FAULT,),
    ),
    # the last vertex row reads the first vertices of d_0 x
    (
        "core.py",
        "table[n - 1][n - 1].__getitem__, first",
        "table[n - 1][0].__getitem__, first",
        (
            "tests/test_core.py::test_vertices_three_ways",
            "tests/test_checks.py::test_lift_checks_match_reference",
        ),
    ),
    # buckets keyed by a sum that is not one-to-one on the pairs
    (
        "checks.py",
        "buckets.setdefault(b * width + v, []).append(x)",
        "buckets.setdefault(b + v, []).append(x)",
        (
            "tests/test_checks.py::test_checks_match_oracles_on_generated",
            "tests/test_checks.py::test_witnesses_revalidate_on_generated",
        ),
    ),
    # kan_check keeps degree-4 families whose slots 2 and 3 do not agree
    (
        "checks.py",
        "                for q in range(2, p):\n",
        "                for q in range(2, 2):\n",
        (_KAN_REFERENCE,),
    ),
    # the horn lookups swap the d_0 and d_1 indexes
    (
        "checks.py",
        "_buckets(h.level[n - 1], face_row[i], width)",
        "_buckets(h.level[n - 1], face_row[1 - i], width)",
        ("tests/test_checks.py::test_kan_witness_golden",),
    ),
    # the fiber product counts each (last vertex, image) pair once
    (
        "limits.py",
        "at_a[b] = at_a.get(b, 0) + 1",
        "at_a[b] = 1",
        (
            _FIBER_PI0,
            "tests/test_components.py::test_injection_cartesian_matches_oracle_on_diagonals",
        ),
    ),
    # a campaign starts more workers than there are CPUs
    (
        "harness.py",
        "workers = min(jobs, cfg.trials, os.cpu_count() or 1)",
        "workers = min(jobs, cfg.trials)",
        ("tests/test_harness.py::test_campaign_starts_at_most_one_worker_per_trial",),
    ),
    # campaign verdict keys keep the check names' hyphens
    (
        "harness.py",
        'r.check.replace("-", "_")',
        "r.check",
        ("tests/test_harness.py::test_disagreement_records_carry_the_instance",),
    ),
    # lazy rows print as an object, not as the list of their rows
    (
        "components.py",
        "        return repr(list(self))\n",
        "        return object.__repr__(self)\n",
        ("tests/test_properties.py::test_lazy_rows_read_like_the_list_of_their_rows",),
    ),
    # input guards no other test reaches
    (
        "core.py",
        "    if X.truncation != Y.truncation:\n",
        "    if False:\n",
        ("tests/test_core.py::test_disjoint_union_requires_equal_truncations",),
    ),
    (
        "limits.py",
        "    if X.truncation != Y.truncation:\n",
        "    if False:\n",
        ("tests/test_limits.py::test_product_requires_equal_truncations",),
    ),
    (
        "maps.py",
        "    if f.target != g.target:\n",
        "    if False:\n",
        ("tests/test_maps.py::test_copair_requires_a_shared_target",),
    ),
    (
        "groupoids.py",
        "    if k < 1:\n",
        "    if False:\n",
        ("tests/test_groupoids.py::test_groupoid_constructors_need_an_object",),
    ),
    (
        "groupoids.py",
        "    if m < 1:\n",
        "    if False:\n",
        ("tests/test_groupoids.py::test_groupoid_constructors_need_an_object",),
    ),
    (
        "standard.py",
        "            if not self.parts:\n",
        "            if False:\n",
        ("tests/test_standard.py::test_spec_check_rejects_an_empty_union_and_an_unknown_kind",),
    ),
    (
        "standard.py",
        "        if self.kind not in _ARITY:\n",
        "        if False:\n",
        ("tests/test_standard.py::test_spec_check_rejects_an_empty_union_and_an_unknown_kind",),
    ),
    (
        "components.py",
        "        elif out[c] != d:\n",
        "        elif False:\n",
        ("tests/test_components.py::test_pi0_map_rejects_a_map_that_splits_a_component",),
    ),
    (
        "components.py",
        "        if not isinstance(other, (list, _Rows)):\n",
        "        if False:\n",
        ("tests/test_components.py::test_lazy_rows_are_unequal_to_what_is_not_a_list",),
    ),
    # a check's table entry accepts a witness kind the check never reports
    (
        "checks.py",
        '"kan": {MissingHornFiller: _recheck_horn},',
        '"kan": {MissingHornFiller: _recheck_horn, ComponentLeak: _recheck_leak},',
        (_REPLAY_MATRIX,),
    ),
    (
        "checks.py",
        '"separable-lifting": {AmbiguousLift: _recheck_lifting},',
        '"separable-lifting": {AmbiguousLift: _recheck_lifting, MissingLift: _recheck_missing},',
        (_REPLAY_MATRIX,),
    ),
    (
        "checks.py",
        '"injection-cartesian": {ComponentLeak: _recheck_leak},',
        '"injection-cartesian": {ComponentLeak: _recheck_leak, ComparisonClash: _recheck_clash},',
        (_REPLAY_MATRIX,),
    ),
    # a separable-direct leak replays on the map, not on its diagonal
    (
        "checks.py",
        "lambda h, w: _recheck_leak(diagonal(h).delta, w)",
        "lambda h, w: _recheck_leak(h, w)",
        (_REPLAY_MATRIX, "tests/test_checks.py::test_witnesses_revalidate_on_generated"),
    ),
    # a construction is built without its cell count checked first (the CLI
    # test is not named here: without the check it would build 10^9 cells)
    (
        "standard.py",
        '        _check_budget(cells, f"{spec.kind} at truncation {truncation}")\n',
        "        pass\n",
        (_STANDARD_BUDGET,),
    ),
    (
        "groupoids.py",
        '        _check_budget(sum(upto), f"nerve at truncation {truncation}")\n',
        "        pass\n",
        (_NERVE_BUDGET,),
    ),
    (
        "limits.py",
        '    _check_budget(sum(cells), "fiber product")\n',
        "",
        (_FIBER_BUDGET,),
    ),
    # one cell over the budget passes
    (
        "core.py",
        "    if cells > CELL_BUDGET:\n",
        "    if cells > CELL_BUDGET + 1:\n",
        (_STANDARD_BUDGET, _NERVE_BUDGET, _FIBER_BUDGET),
    ),
    # a horn is counted like a boundary, missing the maps onto [n] minus k
    (
        "standard.py",
        '"horn": comb(m + 1, n)',
        '"horn": comb(m, n)',
        (_STANDARD_BUDGET,),
    ),
    # the nerve count is one over in every degree, or forgets the empty strings
    (
        "groupoids.py",
        "_check_budget(sum(upto), ",
        "_check_budget(sum(upto) + 1, ",
        (_NERVE_BUDGET,),
    ),
    (
        "groupoids.py",
        "upto = [1 + sum(",
        "upto = [sum(",
        (_NERVE_BUDGET,),
    ),
    # verify loses the generator options
    (
        "cli.py",
        "parents=[gen, fmt]",
        "parents=[fmt]",
        ("tests/test_io_cli.py::test_cli_verify_campaign",),
    ),
    # records of two classes with equal fields compare equal
    (
        "_record.py",
        "if other.__class__ is self.__class__:",
        "if isinstance(other, Record):",
        (_RECORDS,),
    ),
    # a frozen record takes assignments
    (
        "_record.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        (_RECORDS,),
    ),
    # a frozen record's hash leaves out its last field
    (
        "_record.py",
        "return hash(self._key())",
        "return hash(self._key()[:-1])",
        (_RECORDS,),
    ),
    # a campaign config's document shares its fixture_mix
    (
        "harness.py",
        '"fixture_mix": dict(self.fixture_mix)}',
        '"fixture_mix": self.fixture_mix}',
        (_RECORDS,),
    ),
    # a partition compares its way of counting
    (
        "components.py",
        '    _compare = ("count", "vertex_class", "class_of")\n',
        "",
        (_RECORDS,),
    ),
    # separable-lifting reports the last ambiguous group, not the first
    (
        "checks.py",
        "                    if least is None:\n",
        "                    if True:\n",
        ("tests/test_checks.py::test_lift_checks_match_reference",),
    ),
    # the generated __init__ drops its last field, on a mutable and on a frozen record
    (
        "_record.py",
        'body = "; ".join(f"self.{f} = {f}" for f in fields)',
        'body = "; ".join(f"self.{f} = {f}" for f in fields[:-1])',
        (_RECORDS,),
    ),
    (
        "_record.py",
        "{', '.join(f'{f}={f}' for f in fields)}",
        "{', '.join(f'{f}={f}' for f in fields[:-1])}",
        (_RECORDS,),
    ),
    # the generated __init__ ignores the values in _defaults
    (
        "_record.py",
        'f"{f}=_defaults[{f!r}]"',
        'f"{f}=None"',
        (_RECORDS,),
    ),
    # an __init__ is generated only for the classes that define their own.  Claim
    # is exempt: CLAIMS is built on import, and a failed import counts as an error
    (
        "_record.py",
        'if "__init__" not in cls.__dict__:',
        'if "__init__" in cls.__dict__ or cls.__name__ == "Claim":',
        (_RECORDS,),
    ),
    # a frozen record stores its fields through setattr (Claim exempt, as above)
    (
        "_record.py",
        "if issubclass(cls, Frozen):",
        'if cls.__name__ == "Claim":',
        (_RECORDS,),
    ),
    # a campaign config lets a weight that is not finite through to the draws
    (
        "harness.py",
        "if not math.isfinite(sum(self.fixture_mix.values())):",
        "if False:",
        ("tests/test_harness.py::test_config_checks",),
    ),
    # a derived table is built on every call instead of once per object
    (
        "core.py",
        "tables[name] = build(self)",
        "return build(self)",
        (_COPIES,),
    ),
    # copies and pickles carry the derived tables, which a tampered copy then reads
    (
        "core.py",
        'return {k: v for k, v in self.__dict__.items() if k != "_derived"}',
        "return dict(self.__dict__)",
        (_COPIES,),
    ),
    # a partition counts its components afresh on every sizes() call
    (
        "components.py",
        'vars(self).setdefault("_sizes", {})',
        "{}",
        ("tests/test_limits.py::test_fiber_product_partition_counts_each_component_once",),
    ),
    # pi1 on an object without triangles does not name the file
    (
        "cli.py",
        'raise ValueError(f"{args.path}: {exc}") from exc',
        "raise",
        (_FILE_AT_FAULT,),
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
