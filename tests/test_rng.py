"""The seeded stream against numpy's Generator(Philox(key)), which it reproduces.

numpy is needed only here and in test_core's reference draws; the package
itself draws through harness.PhiloxStream.
"""

import random

import numpy as np
import pytest

from ssetkit.harness import DEFAULT_MIX, _family_weights, trial_rng

MASK64 = (1 << 64) - 1

EDGE_KEYS = [
    (0, 0), (0, 1), (1, 0), (5, 3), (42, 3), (2**63 - 1, 0), (2**63, 1), (2**63 + 1, 2**63),
    (2**64 - 1, 0), (0, 2**64 - 1), (2**64 - 1, 2**64 - 1), (-1, 0), (-1000, 7), (3, -2**63),
]

# ranges with no draw (1 value), Lemire's with rejections (2**31 + 1 and
# 3 * 2**30 reject about half and a quarter of the time), none (2**31), the
# largest range with rejections (2**32 - 1) and 2**32, where Lemire's
# method returns next32 itself
RANGES = [
    (0, 1), (0, 2), (0, 3), (1, 4), (0, 5), (-5, 5), (0, 40), (0, 1 << 30),
    (0, 2**31), (0, 2**31 + 1), (-7, (3 << 30) - 7), (0, 2**32 - 1), (0, 2**32),
    (2**40, 2**40 + 2**32), (-(2**40), -(2**40) + 1000),
]


def _numpy_rng(k0, k1):
    key = np.array([k0 & MASK64, k1 & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def test_stream_matches_numpy():
    pick = random.Random(30)
    keys = EDGE_KEYS + [(pick.getrandbits(64), pick.getrandbits(64)) for _ in range(140)]
    calls = 0
    for k0, k1 in keys:
        ours, theirs = trial_rng(k0, k1), _numpy_rng(k0, k1)
        for _ in range(360):
            op = pick.randrange(3)
            if op == 0:
                got, want = ours.random(), float(theirs.random())
            elif op == 1:
                lo, hi = pick.choice(RANGES)
                got, want = ours.integers(lo, hi), int(theirs.integers(lo, hi))
            else:
                k = pick.randrange(1, 6)
                w = [pick.random() for _ in range(k)]
                p = [x / sum(w) for x in w]
                got, want = ours.choice(p), int(theirs.choice(k, p=p))
            assert got == want, (k0, k1, calls)
            calls += 1
    assert len(keys) >= 150 and calls >= 50_000


def test_family_weights_are_numpys():
    pick = random.Random(5)
    mixes = [DEFAULT_MIX, {"gluing": 1, "fold": 2}, {"fold": 0.0, "corrupted": 3.5}]
    for _ in range(500):
        mixes.append(
            {n: pick.choice((0.0, pick.random(), pick.uniform(0, 1e6))) for n in DEFAULT_MIX}
        )
    for mix in mixes:
        if not any(w > 0 for w in mix.values()):
            continue
        names, p = _family_weights(mix)
        w = np.array([mix[n] for n in names], dtype=float)
        assert names == sorted(n for n in mix if mix[n] > 0)
        assert p == (w / w.sum()).tolist(), mix


def test_out_of_range_draws_raise():
    ours, theirs = trial_rng(5, 3), _numpy_rng(5, 3)
    for lo, hi in ((0, 0), (3, 3), (5, 2), (-1, -4)):
        with pytest.raises(ValueError):
            theirs.integers(lo, hi)
        with pytest.raises(ValueError):
            ours.integers(lo, hi)
    # numpy draws wider ranges by Lemire's 64-bit method; the generator never
    # asks for one, and the stream refuses it
    for lo, hi in ((0, 2**32 + 1), (-1, 2**32), (0, 2**63)):
        with pytest.raises(ValueError):
            ours.integers(lo, hi)
    # a refused call draws nothing
    assert ours.integers(0, 1 << 30) == theirs.integers(0, 1 << 30)
