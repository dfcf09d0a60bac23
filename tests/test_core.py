"""Tables, simplicial identities, normal forms, and closure."""

import copy
import itertools

import numpy as np
import pytest

import oracles as orc
import ssetkit as sk
from ssetkit.core import ValidationReport, validate, vertex_table
from ssetkit.standard import (
    boundary_spec,
    build_standard,
    horn_spec,
    monotone_maps,
    simplex_spec,
)


def test_zoo_validates(zoo):
    for name, X in zoo.items():
        report = validate(X)
        assert report.ok, f"{name}: {report.failure}"


def test_buffer_reporting(zoo):
    # simplex(2) at truncation 3 has its top degree fully degenerate
    assert validate(zoo["triangle"]).has_buffer
    assert validate(zoo["empty"]).has_buffer
    # nerves carry nondegenerate strings at every degree
    assert not validate(zoo["nerve-z2"]).has_buffer
    assert not validate(zoo["codiscrete2"]).has_buffer


def test_validate_catches_face_tampering(zoo):
    X = copy.deepcopy(zoo["triangle"])
    X.face[2][0][len(X.face[2][0]) - 1] ^= 1
    report = validate(X)
    assert not report.ok
    assert report.failure.kind in ("identity", "shape")


def test_validate_catches_degeneracy_tampering(zoo):
    X = copy.deepcopy(zoo["interval"])
    X.degeneracy[0][0][0] ^= 1
    report = validate(X)
    assert not report.ok
    assert report.failure.kind == "identity"
    assert report.failure.detail["law"] in ("ss", "ds")


def test_validate_catches_shape_errors(zoo):
    X = copy.deepcopy(zoo["interval"])
    X.face[1][0].append(0)
    report = validate(X)
    assert not report.ok and report.failure.kind == "shape"

    Y = copy.deepcopy(zoo["interval"])
    Y.face[1][0][0] = 99
    report = validate(Y)
    assert not report.ok and report.failure.kind == "shape"

    Z = copy.deepcopy(zoo["interval"])
    Z.degeneracy[0][0][0] = -1
    assert not validate(Z).ok

    # one malformed object per reason, each against the oracle
    def tampered(edit, X=zoo["interval"]):
        X = copy.deepcopy(X)
        edit(X)
        return X

    malformed = {
        "negative truncation": sk.TruncatedSSet(-1, [], [[]], []),
        "bad cell counts": sk.TruncatedSSet(0, [-1], [[]], []),
        "face table length": tampered(lambda X: X.face.append([])),
        "degeneracy table length": tampered(lambda X: X.degeneracy.pop()),
        "face row count": tampered(lambda X: X.face[2].pop()),
        "face row length": tampered(lambda X: X.face[1][0].append(0)),
        "face out of range": tampered(lambda X: X.face[1][1].__setitem__(0, 2)),
        "degeneracy row count": tampered(
            lambda X: X.degeneracy[1].append(X.degeneracy[1][0][:]),
            build_standard(simplex_spec(1), 2),
        ),
        "degeneracy row length": tampered(lambda X: X.degeneracy[1][1].pop()),
        "degeneracy out of range": tampered(lambda X: X.degeneracy[1][0].__setitem__(0, 99)),
    }
    for reason, X in malformed.items():
        failure = validate(X).failure
        assert failure.to_doc() == orc._naive_shape_failure(X).to_doc(), reason
        assert failure.detail["reason"] == reason


def test_report_ok_is_derived_from_its_failure(zoo):
    X = copy.deepcopy(zoo["interval"])
    X.degeneracy[0][0][0] ^= 1
    report = validate(X)
    assert not report.ok and not report and report.has_buffer
    assert list(report.failure.to_doc()) == ["kind", "degree", "law", "i", "j", "simplex"]
    assert not ValidationReport(failure=report.failure).ok
    assert ValidationReport().ok
    Y = copy.deepcopy(zoo["interval"])
    Y.face[1][0][0] = 99
    report = validate(Y)
    assert not report.ok and not report.has_buffer
    doc = report.failure.to_doc()
    assert doc == {"kind": "shape", "degree": 1, "reason": "face out of range", "i": 0}


def _doc(failure):
    return None if failure is None else failure.to_doc()


def test_validate_matches_oracle_on_every_single_entry_tamper(zoo):
    # each face and degeneracy entry set to every other value in -1..bound:
    # both out-of-range values and every in-range one
    tampers = failing = 0
    for name, X0 in zoo.items():
        X = copy.deepcopy(X0)
        N = X.truncation
        for row, x, bound in orc.table_entries(X):
            keep = row[x]
            for v in range(-1, bound + 1):
                if v == keep:
                    continue
                row[x] = v
                report = validate(X)
                want = orc.naive_identity_failure(X)
                assert _doc(report.failure) == _doc(want), (name, x, v)
                if want is None or want.kind != "shape":
                    # has_buffer is read off the cells after an identity failure too
                    has_buffer = all(
                        orc.ez_peel_greatest(X, N, y)[1] < N for y in range(X.cells[N])
                    )
                    assert report.has_buffer == has_buffer, (name, x, v)
                tampers += 1
                failing += want is not None
            row[x] = keep
    assert tampers > 5000 and failing > 4000


def test_ds_law_reports_least_x_before_i():
    # two vertices, s_0 v = e_v; d_0 e_1 = 0 breaks d_0 s_0 1 = 1 (i=0, x=1)
    # and d_1 e_0 = 1 breaks d_1 s_0 0 = 0 (i=1, x=0): x is scanned first
    X = sk.TruncatedSSet(1, [2, 2], [[], [[0, 0], [1, 1]]], [[[0, 1]]])
    failure = validate(X).failure
    assert failure.to_doc() == {
        "kind": "identity", "degree": 0, "law": "ds", "i": 1, "j": 0, "simplex": 0
    }
    assert failure == orc.naive_identity_failure(X)


def test_every_identity_law_instance(zoo):
    # validate() stops at the first hit; this scan covers them all
    for X in zoo.values():
        fc, dg = X.face, X.degeneracy
        N = X.truncation
        for n in range(2, N + 1):
            for x in range(X.cells[n]):
                for j in range(n + 1):
                    for i in range(j):
                        assert fc[n - 1][i][fc[n][j][x]] == fc[n - 1][j - 1][fc[n][i][x]]
        for n in range(N - 1):
            for x in range(X.cells[n]):
                for j in range(n + 1):
                    for i in range(j + 1):
                        assert dg[n + 1][i][dg[n][j][x]] == dg[n + 1][j + 1][dg[n][i][x]]
        for n in range(N):
            for x in range(X.cells[n]):
                for j in range(n + 1):
                    sx = dg[n][j][x]
                    assert fc[n + 1][j][sx] == x
                    assert fc[n + 1][j + 1][sx] == x


def test_functoriality_of_the_action(zoo):
    # X(alpha . beta) = X(beta) . X(alpha), the master law behind apply_monotone
    rng = np.random.default_rng(2024)
    for X in zoo.values():
        for _ in range(60):
            n = int(rng.integers(0, X.truncation + 1))
            if X.cells[n] == 0:
                continue
            x = int(rng.integers(0, X.cells[n]))
            p = int(rng.integers(0, X.truncation + 1))
            q = int(rng.integers(0, X.truncation + 1))
            alphas = monotone_maps(p, n)
            betas = monotone_maps(q, p)
            alpha = alphas[int(rng.integers(0, len(alphas)))]
            beta = betas[int(rng.integers(0, len(betas)))]
            combined = orc.apply_monotone(X, orc.tuple_compose(alpha, beta), n, x)
            stepwise = orc.apply_monotone(X, beta, p, orc.apply_monotone(X, alpha, n, x))
            assert combined == stepwise


def test_apply_monotone_matches_oracle(zoo):
    rng = np.random.default_rng(7)
    for X in zoo.values():
        for _ in range(80):
            n = int(rng.integers(0, X.truncation + 1))
            if X.cells[n] == 0:
                continue
            x = int(rng.integers(0, X.cells[n]))
            p = int(rng.integers(0, X.truncation + 1))
            alphas = monotone_maps(p, n)
            alpha = alphas[int(rng.integers(0, len(alphas)))]
            assert orc.apply_monotone(X, alpha, n, x) == orc.apply_op(X, alpha, n, x)


def test_vertices_three_ways(zoo):
    for X in zoo.values():
        table = vertex_table(X)
        for n in range(X.truncation + 1):
            # one row per vertex position, indexed like the face rows
            assert len(table[n]) == n + 1
            assert all(type(row) is list and len(row) == X.cells[n] for row in table[n])
            for x in range(X.cells[n]):
                for j in range(n + 1):
                    v = X.vertex(n, x, j)
                    assert v == orc.naive_vertex(X, n, x, j)
                    assert v == table[n][j][x]


def test_ez_normal_form(zoo):
    for X in zoo.values():
        for n in range(X.truncation + 1):
            nondeg = X.nondegenerate(n)
            for x in range(X.cells[n]):
                phi, m, y = orc.ez_peel_greatest(X, n, x)
                assert X.nondegenerate(m)[y]
                assert orc.apply_monotone(X, phi, m, y) == x
                assert (m == n) == nondeg[x]


def test_ez_uniqueness_brute_force(zoo):
    # exactly one (epi, nondegenerate base) presentation per simplex
    for name in ("interval", "circle", "nerve-z2"):
        X = zoo[name]
        nondeg = [X.nondegenerate(m) for m in range(X.truncation + 1)]
        for n in range(X.truncation + 1):
            for x in range(X.cells[n]):
                found = []
                for m in range(n + 1):
                    for phi in monotone_maps(n, m):
                        if set(phi) != set(range(m + 1)):
                            continue
                        for y in range(X.cells[m]):
                            if nondeg[m][y] and orc.apply_monotone(X, phi, m, y) == x:
                                found.append((phi, m, y))
                assert found == [orc.ez_peel_greatest(X, n, x)]


def test_apply_epi_identity_and_elementary(zoo):
    X = zoo["circle"]
    assert orc.apply_epi(X, (0, 1), 1, 1) == 1
    # sigma_0 on the loop is the first degenerate 2-cell above it
    assert orc.apply_epi(X, (0, 0, 1), 1, 1) == X.degeneracy[1][0][1]


def test_closure_step_parents():
    X = build_standard(simplex_spec(1), 2)
    ext, parents = orc.closure_step(X)
    assert ext.truncation == 3
    assert ext.cells[:3] == X.cells
    assert len(parents) == ext.cells[3]
    for cell, (t, parent) in enumerate(parents):
        assert ext.degeneracy[2][t][parent] == cell
    assert validate(ext).ok


def test_degeneracy_closure_matches_direct_build():
    for n, upto in ((0, 3), (1, 4), (2, 4)):
        X = build_standard(simplex_spec(n), n + 1)
        closed = orc.degeneracy_closure(X, upto)
        direct = build_standard(simplex_spec(n), upto)
        assert closed.cells == direct.cells
        assert validate(closed).ok
        # same Eilenberg-Zilber content degree by degree
        for m in range(upto + 1):
            assert _ez_content(closed, m) == _ez_content(direct, m)


def _ez_content(X, m):
    """The sorted (phi, degree) parts of the normal forms of X's m-cells."""
    return sorted(orc.ez_peel_greatest(X, m, x)[:2] for x in range(X.cells[m]))


def test_degeneracy_closure_requires_growth(zoo):
    X = zoo["interval"]
    assert orc.degeneracy_closure(X, 3).cells == X.cells


def test_disjoint_union_counts_and_components(zoo):
    X, Y = zoo["interval"], zoo["circle"]
    U = sk.disjoint_union(X, Y)
    assert U.cells == [a + b for a, b in zip(X.cells, Y.cells)]
    assert validate(U).ok
    assert sk.pi0(U).count == sk.pi0(X).count + sk.pi0(Y).count


def test_disjoint_union_requires_equal_truncations(zoo):
    with pytest.raises(ValueError, match="truncation mismatch in disjoint union"):
        sk.disjoint_union(zoo["interval"], sk.discrete_sset(1, 2))


def test_discrete_and_empty():
    E = sk.empty_sset(2)
    assert validate(E).ok and E.nondegenerate_dim == -1
    assert E == sk.discrete_sset(0, 2)
    D = sk.discrete_sset(3, 2)
    assert validate(D).ok and D.nondegenerate_dim == 0
    assert sk.pi0(D).count == 3


def test_discrete_rejects_negative_arguments():
    for points, truncation in ((1, -1), (-2, 2)):
        with pytest.raises(ValueError, match="must be >= 0"):
            sk.discrete_sset(points, truncation)
    with pytest.raises(ValueError, match="truncation must be >= 0"):
        sk.empty_sset(-1)


def test_simplex_cells_are_monotone_tuples():
    # cells of the standard simplex, and of its boundaries and horns, are
    # the kept monotone tuples in enumeration order, with faces and
    # degeneracies acting by precomposition
    cases = [(simplex_spec(n), n, lambda t: True) for n in range(4)]
    cases += [
        (boundary_spec(n), n, lambda t, n=n: set(t) != set(range(n + 1)))
        for n in range(4)
    ]
    cases += [
        (horn_spec(n, k), n, lambda t, n=n, k=k: set(t) | {k} != set(range(n + 1)))
        for n in range(1, 4)
        for k in range(n + 1)
    ]
    for spec, n, keep in cases:
        upto = max(3, n + 1)
        X = build_standard(spec, upto)
        tuples = [[t for t in monotone_maps(m, n) if keep(t)] for m in range(upto + 1)]
        assert X.cells == [len(ts) for ts in tuples], spec
        for m in range(1, upto + 1):
            index = {t: c for c, t in enumerate(tuples[m - 1])}
            for c, t in enumerate(tuples[m]):
                for i in range(m + 1):
                    want = index[orc.tuple_compose(t, orc.delta_op(i, m))]
                    assert X.face[m][i][c] == want
        for m in range(upto):
            index = {t: c for c, t in enumerate(tuples[m + 1])}
            for c, t in enumerate(tuples[m]):
                for i in range(m + 1):
                    want = index[orc.tuple_compose(t, orc.sigma_op(i, m))]
                    assert X.degeneracy[m][i][c] == want
