"""Shared fixtures: a small object zoo, the named maps, the differential
corpus, and the campaign."""

import pytest

import ssetkit as sk
from ssetkit.groupoids import codiscrete_groupoid, cyclic_group_groupoid, nerve
from ssetkit.harness import GenConfig, gen_morphism
from ssetkit.limits import diagonal
from ssetkit.maps import validate_parts
from ssetkit.standard import (
    boundary_spec,
    build_standard,
    circle_spec,
    horn_spec,
    simplex_spec,
)


@pytest.fixture(scope="session")
def zoo():
    """Name -> object, everything at truncation 3."""
    n = 3
    return {
        "empty": sk.empty_sset(n),
        "point": build_standard(simplex_spec(0), n),
        "interval": build_standard(simplex_spec(1), n),
        "triangle": build_standard(simplex_spec(2), n),
        "circle": build_standard(circle_spec(), n),
        "boundary2": build_standard(boundary_spec(2), n),
        "horn21": build_standard(horn_spec(2, 1), n),
        "nerve-z2": nerve(cyclic_group_groupoid(2), n),
        "codiscrete2": nerve(codiscrete_groupoid(2), n),
        "two-points": sk.discrete_sset(2, n),
    }


@pytest.fixture(scope="session")
def named_maps():
    """The curated fixture maps plus a vertex inclusion, at truncation 3."""
    maps = dict(sk.curated_instances(3))
    interval = build_standard(simplex_spec(1), 3)
    maps["vertex-into-interval"] = sk.point_inclusion(interval, 0)
    return maps


@pytest.fixture(scope="session")
def campaign500():
    """The acceptance campaign: 500 seeded trials plus curated fixtures."""
    return sk.run_campaign(sk.GenConfig(seed=42, trials=500))


@pytest.fixture(scope="session")
def differential_maps(zoo, named_maps):
    """(name, map) for the differential tests: each check's full report
    against its definitional oracle in oracles.py.

    Zoo-built maps, the named maps, three maps at truncation 0 and a seeded
    corpus, then all their diagonals.
    """
    maps = []
    for name, X in zoo.items():
        maps += [
            (f"identity:{name}", sk.identity_map(X)),
            (f"terminal:{name}", sk.terminal_map(X)),
            (f"fold:{name}", sk.fold_map(X)),
        ]
        if X.cells[0]:
            maps.append((f"vertex:{name}", sk.point_inclusion(X, 0)))
    maps += named_maps.items()
    # no edges, so their fiber products have none either
    maps += [
        ("fold:discrete2@0", sk.fold_map(sk.discrete_sset(2, 0))),
        ("terminal:discrete3@0", sk.terminal_map(sk.discrete_sset(3, 0))),
        ("vertex:discrete2@0", sk.point_inclusion(sk.discrete_sset(2, 0), 1)),
    ]
    cfg = GenConfig(seed=31, trials=0)
    for t in range(80):
        _, h = gen_morphism(cfg, t)
        if validate_parts(h)[1].ok:
            maps.append((f"trial:{t}", h))
    return maps + [(f"diagonal:{name}", diagonal(h).delta) for name, h in maps]
