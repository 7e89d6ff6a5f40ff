from itertools import combinations

import pytest

from strathardy import bft_fuzz, experiments, halfspace_preset, quadrature, run_identity_suite, streams
from strathardy.config import SIZE_BOUNDS
from strathardy.trials import random_interior_bumps


@pytest.fixture
def keys(monkeypatch):
    """Every key streams hands out while the fixture is live, in order."""
    seen = []
    real = streams.philox_key

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(streams, "philox_key", spy)
    return seen


def _taken(keys):
    out = list(keys)
    keys.clear()
    return out


@pytest.mark.parametrize("seed", [0, 2024, -1, 2**64 + 5])
def test_no_two_purposes_share_a_key(monkeypatch, keys, seed):
    """Each purpose run at the largest size a config may give it."""
    by_purpose = {}
    random_interior_bumps(halfspace_preset(3, "t-axis"), SIZE_BOUNDS["trials.count"], seed)
    by_purpose["placement"] = set(_taken(keys))

    # three Monte Carlo chunks of a real draw give the domain and the step
    # of its keys; the node budget of the (8, 17)-coordinate group gives
    # the most chunks a rule can draw
    quadrature._philox_uniform.__wrapped__(seed, 2 * quadrature._CHUNK + 1, 1)
    first = _taken(keys)
    assert [index - first[0][1] for _, index in first] == [0, 1, 2]
    dims = range(1, 2 * SIZE_BOUNDS["group index"] + 2)
    most = max(len(range(0, quadrature._NODE_BUDGET, max(1, quadrature._CHUNK // n))) for n in dims)
    by_purpose["monte-carlo"] = {(first[0][0], first[0][1] + c) for c in range(most)}

    # the chunk loop is left out: the keys are all made before it runs
    monkeypatch.setattr(experiments, "_bft_chunks", lambda chunks, *rest: (0, 0.0))
    bft_fuzz(samples=SIZE_BOUNDS["samples"], seed=seed)
    fuzzer = _taken(keys)
    assert len(fuzzer) == len(set(fuzzer)) == 763
    by_purpose["fuzzer"] = set(fuzzer)

    indices = range(1, SIZE_BOUNDS["identity_indices entry"] + 1)
    assert all(c.passed for c in run_identity_suite(indices=indices, points=5, seed=seed))
    identity = _taken(keys)
    assert len(identity) == len(set(identity)) == 3 * len(indices)
    by_purpose["identities"] = set(identity)

    shared = {(a, b): by_purpose[a] & by_purpose[b] for a, b in combinations(by_purpose, 2)}
    assert shared == {pair: set() for pair in shared}


def test_domains_keep_the_keys_of_domain_zero():
    assert streams.philox_key(7, 2) == (7, 2)
    assert streams.philox_key(-1, 5) == (2**64 - 1, 5)
    assert streams.philox_key(7, 2, streams.FUZZER) == (7, 2**32 + 2)
    assert streams.philox_key(7, 2**32 - 1, streams.IDENTITIES) == (7, 3 * 2**32 - 1)
    assert streams.philox_key(7, 2, streams.MONTE_CARLO) == (7, 3 * 2**32 + 2)


@pytest.mark.parametrize("index", [-1, 2**32])
def test_an_index_outside_its_domain_is_rejected(index):
    with pytest.raises(ValueError):
        streams.philox_key(7, index, streams.FUZZER)
