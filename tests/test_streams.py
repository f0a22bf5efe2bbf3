"""The array streams of the batched engine against numpy's own generators.

replica_rng(seed, i) and oracles.policy_rng(seed, j) define the noise and
the random policies: numpy's Generator(Philox(SeedSequence(seed,
spawn_key=(k, i)))). The engine computes the same keys and Philox blocks as
arrays over many indices at once; every word and every uniform must equal
numpy's, and a seed numpy refuses must fail with numpy's error.
"""

import math

import numpy as np
import pytest

from noisycfmm import (
    STRATEGY_KINDS,
    ExperimentConfig,
    PrivacySpec,
    StrategyConfig,
    TradingCurve,
    estimate_excess_profit,
    replica_rng,
)
from noisycfmm import harness
from noisycfmm.privacy import two_point_weights
from oracles import policy_params, policy_rng

SEEDS = [0, 2**32 - 1, 2**64 + 1, 2**130 + 3]
# one and two 32-bit words, both ends of each
INDICES = np.array([0, 2**32 - 1, 2**32, 2**32 + 7, 2**64 - 1], dtype=np.uint64)


def numpy_generator(seed: int, k: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(k, index))))


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_keys_match_seed_sequence(seed, k):
    keys = harness._stream_keys(seed, k, INDICES)
    want = [
        np.random.SeedSequence(seed, spawn_key=(k, i)).generate_state(2, np.uint64)
        for i in INDICES.tolist()
    ]
    assert np.array_equal(keys.T, want)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_blocks_match_philox(seed, k):
    """Lane c % 4 of block c // 4 + 1 is draw c, whatever block each row is at."""
    keys = harness._stream_keys(seed, k, INDICES)
    want = [numpy_generator(seed, k, i).random(16) for i in INDICES.tolist()]
    for shift in range(4):  # each row asks for a different block in one call
        blocks = 1 + (np.arange(INDICES.size) + shift) % 4
        got = harness._unit(harness._philox(keys, blocks))
        for row, block in enumerate(blocks.tolist()):
            assert np.array_equal(got[:, row], want[row][4 * block - 4:4 * block])


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_draws_follow_each_replica_stream(seed):
    """_Batch._draw hands each replica its next uniform, for 1 to 13 draws at mixed offsets."""
    config = ExperimentConfig(
        curve=TradingCurve.constant_product(1e4), initial_x=100.0, true_price=1.5,
        privacy=PrivacySpec(0.0, 2.0, 2.0), strategy=StrategyConfig("noise_chasing"),
        replicas=6, seed=seed,
    )
    start = 2**32 - 3  # the indices cross into two words
    batch = harness._Batch(config, config.initial_state(), seed, start, start + 6)
    streams = [replica_rng(seed, i) for i in range(start, start + 6)]
    drawn = [0] * 6
    for step in range(60):
        # row r skips every (r + 2)-th step, so the rows drift apart in lane
        rows = np.array([r for r in range(6) if drawn[r] < 13 and (step + r) % (r + 2)])
        if rows.size:
            got = batch._draw(rows)
            assert np.array_equal(got, [streams[r].random() for r in rows.tolist()])
            for r in rows.tolist():
                drawn[r] += 1
    assert drawn == [13] * 6


SPECS = [PrivacySpec(0.0, 2.0, 2.0), PrivacySpec(-3.0, 0.5, 0.3), PrivacySpec(1.0, 1.0, math.inf)]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("seed", [0, 42, 2**64 + 1])
def test_policy_table_matches_policy_params(seed, spec):
    table = harness._policy_table(seed, 60, spec)
    params = np.array([policy_params(seed, j, spec) for j in range(60)])
    assert table[:, :5].tobytes() == params.tobytes()
    assert table[:, 5:].tolist() == [list(two_point_weights(p[3])) for p in params]


def test_lemire_rejection_predicate():
    words = np.array([0, 1, 2**32 - 1, 715827882, 715827883], dtype=np.uint64)
    # span 3 refuses only the word whose product leaves a remainder below 1
    assert harness._lemire_rejects(words, 3).tolist() == [True, False, False, False, False]
    # span 6 refuses a remainder below 2**32 % 6 == 4: 6 * 715827883 = 2**32 + 2
    assert harness._lemire_rejects(words, 6).tolist() == [True, False, False, False, True]


def test_lemire_rejection_agrees_with_numpy():
    """A span that refuses about a quarter of the words: numpy takes a second
    word exactly where the predicate says so, and otherwise returns the high
    word of the product."""
    span = 3 * 2**30
    keys = harness._stream_keys(5, 1, np.arange(200, dtype=np.uint64))
    words = harness._philox(keys, np.full(200, 2, dtype=np.uint64))[0] & harness._LOW32
    refused = harness._lemire_rejects(words, span)
    assert 20 < refused.sum() < 80
    for j in range(200):
        rng = policy_rng(5, j)
        rng.random(4)  # use up block 1
        value = int(rng.integers(0, span))
        state = rng.bit_generator.state
        one_word = (state["buffer_pos"], state["has_uint32"]) == (1, 1)
        assert one_word == (not refused[j])
        if one_word:
            assert value == int(words[j]) * span >> 32


# about a quarter, and just under half, of the words refused; at the second
# span some of the 2000 rows are refused eight times and draw from block 3
@pytest.mark.parametrize("span, n", [(3 * 2**30, 200), (2**31 + 1, 2000)])
def test_bounded_draw_agrees_with_numpy(span, n):
    keys = harness._stream_keys(5, 1, np.arange(n, dtype=np.uint64))
    got = harness._bounded(keys, 2, span)
    want = []
    for j in range(n):
        rng = policy_rng(5, j)
        rng.random(4)  # use up block 1
        want.append(int(rng.integers(0, span)))
    assert got.tolist() == want


def test_negative_seed_raises_numpys_error():
    with pytest.raises(ValueError) as numpy_error:
        replica_rng(-1, 0)
    for k in (0, 1):
        with pytest.raises(ValueError) as ours:
            harness._stream_keys(-1, k, INDICES)
        assert str(ours.value) == str(numpy_error.value)


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_negative_seed_fails_for_every_strategy_kind(kind):
    config = ExperimentConfig(
        curve=TradingCurve.constant_product(1e4), initial_x=100.0, true_price=1.5,
        privacy=PrivacySpec(0.0, 2.0, 2.0),
        strategy=StrategyConfig(kind, trade_size=1.0 if kind == "case1" else -1.0, detour_price=2.0),
        replicas=5, seed=0,
    )
    object.__setattr__(config, "seed", -1)  # past ExperimentConfig's own check
    with pytest.raises(ValueError) as numpy_error:
        replica_rng(-1, 0)
    with pytest.raises(ValueError) as ours:
        estimate_excess_profit(config)
    assert (type(ours.value), str(ours.value)) == (ValueError, str(numpy_error.value))
