"""The record classes: equality, hashing, immutability, replace and copies."""

import copy
import inspect
import pickle

import pytest

import ssetkit as sk
from ssetkit._record import Frozen, replace
from ssetkit.checks import CLAIMS
from ssetkit.core import ValidationFailure
from ssetkit.harness import InstanceVerdicts
from ssetkit.report import _Witness
from ssetkit.standard import build_standard, simplex_spec


def _interval():
    return build_standard(simplex_spec(1), 2)


def _report():
    return sk.CheckReport("covering", False, sk.MissingLift(0, 0, 0, 1), {"squares": 3})


# one record of every record class, each built positionally
RECORDS = {
    "AmbiguousLift": lambda: sk.AmbiguousLift(1, 0, 2, 0, 3, 4),
    "MissingLift": lambda: sk.MissingLift(1, 0, 2, 0),
    "MissingHornFiller": lambda: sk.MissingHornFiller(2, 1, 0, ((0, 1), (2, 3))),
    "ComponentLeak": lambda: sk.ComponentLeak(0, 1, 2),
    "ComparisonMiss": lambda: sk.ComparisonMiss(0, 1, 2),
    "ComparisonClash": lambda: sk.ComparisonClash(0, 1, 2),
    "CheckReport": _report,
    "ValidationFailure": lambda: ValidationFailure("shape", 1, {"reason": "x"}),
    "ValidationReport": lambda: sk.ValidationReport(None, False),
    "TruncatedSSet": _interval,
    "SimplicialMap": lambda: sk.terminal_map(_interval()),
    "MapClass": lambda: sk.MapClass(True, False),
    "StandardObjectSpec": lambda: sk.StandardObjectSpec("horn", (2, 1)),
    "FiniteGroupoid": lambda: sk.cyclic_group_groupoid(3),
    "GroupoidPresentation": lambda: sk.pi1_presentation(_interval()),
    "FiberProduct": lambda: sk.product(_interval(), _interval()),
    "DiagonalData": lambda: sk.diagonal(sk.terminal_map(_interval())),
    "ComponentPartition": lambda: sk.pi0(_interval()),
    "Claim": lambda: CLAIMS["implication_failures"],
    "SeparabilityAgreement": lambda: sk.separability_agreement(sk.terminal_map(_interval())),
    "CoveringAgreement": lambda: sk.covering_agreement(sk.terminal_map(_interval())),
    "GenConfig": lambda: sk.GenConfig(3, 1, 4, 20),
    "InstanceVerdicts": lambda: InstanceVerdicts(*[_report()] * 6, True, None, ["kan"]),
    "CampaignReport": lambda: sk.CampaignReport({"scored": 1}, 0.5),
}

# the records whose __init__ stores more than its arguments, so is not generated
OWN_INIT = {"GenConfig"}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    r = RECORDS[name]()
    assert type(r).__name__ == name
    values = {f: getattr(r, f) for f in r._fields}
    # keyword construction, replace and copies give an equal record
    assert type(r)(**values) == r
    for twin in (replace(r), copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert twin == r and twin is not r
    assert repr(r) == f"{name}({', '.join(f'{f}={values[f]!r}' for f in r._compare)})"
    assert type(r).__doc__
    # the constructor takes the fields in order; a generated one has the class's defaults
    params = inspect.signature(type(r)).parameters
    assert list(params) == list(r._fields)
    defaults = {f: p.default for f, p in params.items() if p.default is not p.empty}
    if name not in OWN_INIT:
        assert defaults == type(r)._defaults
    required = {f: v for f, v in values.items() if f not in defaults}
    made = type(r)(**required)
    if name != "GenConfig":  # whose fixture_mix of None stores a copy of DEFAULT_MIX
        assert {f: getattr(made, f) for f in defaults} == defaults
    for f in required:
        with pytest.raises(TypeError, match=f):
            type(r)(**{g: v for g, v in required.items() if g != f})
    with pytest.raises(TypeError, match="unknown"):
        type(r)(**values, unknown=0)
    # replace builds a changed record and leaves r as it was
    first = r._fields[0]
    changed = replace(r, **{first: "changed"})
    assert getattr(changed, first) == "changed" and changed != r
    assert {f: getattr(r, f) for f in r._fields} == values
    if isinstance(r, Frozen):
        with pytest.raises(AttributeError):
            setattr(r, first, "changed")
        with pytest.raises(AttributeError):
            delattr(r, first)
        assert getattr(r, first) == values[first]
        # a frozen record hashes as the tuple of its fields
        assert hash(r) == hash(replace(r)) == hash(tuple(values.values()))
    else:
        with pytest.raises(TypeError):
            hash(r)
    if isinstance(r, _Witness):
        # two witness kinds with equal fields differ
        others = [RECORDS[k]() for k in ("ComponentLeak", "ComparisonMiss", "ComparisonClash")]
        assert [r == o for o in others] == [type(o) is type(r) for o in others]
    if name == "ComponentPartition":
        assert replace(r, count_cells=len) == r
        assert "count_cells" not in repr(r)
    if name == "GenConfig":
        assert r.to_doc() == values and r.to_doc()["fixture_mix"] is not r.fixture_mix
        assert sk.GenConfig().fixture_mix is not sk.GenConfig().fixture_mix
