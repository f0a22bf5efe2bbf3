"""The batched Monte Carlo engine against the scalar one, bit for bit.

estimate_excess_profit runs all replicas of an experiment as arrays. Its
reference is the scalar engine in oracles.scalar_excess_profit, which runs
the strategy functions replica by replica. Every sample, and so the mean,
the standard error, the CI and the per-policy means, must be equal as
floats; a run the scalar engine would stop with an error must stop with the
same error, without the batched run calling a scalar strategy.
"""

import contextlib
import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisycfmm import (
    DomainError,
    ExperimentConfig,
    Family,
    FeePolicy,
    HiddenAccountError,
    NoiseConfig,
    NoisyCfmmError,
    PrivacySpec,
    SpecViolationError,
    StrategyConfig,
    TradingCurve,
    estimate_excess_profit,
)
from noisycfmm import harness, strategies
from oracles import numpy_summary, scalar_excess_profit

CP = TradingCurve.constant_product(1e4)
LMSR = TradingCurve.lmsr(1.0)
CSUM = TradingCurve.constant_sum(1e4, 1.5)
REF_SPEC = PrivacySpec(0.0, 2.0, 2.0)
CHASE = StrategyConfig("noise_chasing", max_rounds=8)
CASE1 = StrategyConfig("case1", trade_size=1.0)
CASE2 = StrategyConfig("case2", trade_size=-1.0, detour_price=2.0)
ADAPTIVE = StrategyConfig("adaptive_random", policies=10, bound=8)


def experiment(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        curve=CP, initial_x=100.0, true_price=1.5, privacy=REF_SPEC, strategy=CHASE,
        replicas=120, seed=42,
    )
    return dataclasses.replace(base, **overrides)


def unchecked(config: ExperimentConfig, **fields) -> ExperimentConfig:
    """config with fields set past the __post_init__ validation."""
    for name, value in fields.items():
        object.__setattr__(config, name, value)
    return config


def lmsr(**overrides) -> ExperimentConfig:
    market = dict(curve=LMSR, initial_x=1.0, true_price=0.8, privacy=PrivacySpec(0.0, 0.2, 2.0))
    return experiment(**{**market, **overrides})


CASES = {
    "chasing": experiment(),
    "case1": experiment(strategy=CASE1),
    "case2": experiment(strategy=CASE2, true_price=0.5, privacy=PrivacySpec(-2.0, 0.0, 2.0)),
    "adaptive": experiment(strategy=ADAPTIVE),
    "truthful": experiment(strategy=StrategyConfig("truthful")),
    "chasing-fee-zero": experiment(fee_policy=FeePolicy.zero()),
    "chasing-fee-fixed": experiment(fee_policy=FeePolicy.fixed(0.01)),
    "chasing-fee-scaled": experiment(fee_policy=FeePolicy.scaled(0.5)),
    "adaptive-fee-scaled": experiment(strategy=ADAPTIVE, fee_policy=FeePolicy.scaled(2.0)),
    "chasing-biased": experiment(noise=NoiseConfig("biased_binary", 0.2)),
    "case1-biased": experiment(strategy=CASE1, noise=NoiseConfig("biased_binary", 0.3)),
    "adaptive-biased": experiment(strategy=ADAPTIVE, noise=NoiseConfig("biased_binary", -0.1)),
    "chasing-exact": experiment(privacy=PrivacySpec(0.0, 2.0, math.inf)),
    "chasing-no-rounds": experiment(strategy=StrategyConfig("noise_chasing", max_rounds=0)),
    "adaptive-no-rounds": experiment(strategy=StrategyConfig("adaptive_random", bound=0)),
    # recentred on the first correction the interval rounds to a point, so
    # the zero atom is drawn and ends the chase before more fixed fees
    "chasing-zero-draw": experiment(
        privacy=PrivacySpec(0.0, 1e-20, 2.0), fee_policy=FeePolicy.fixed(0.01)
    ),
    # a one-ulp interval: its half-width rounds to 0, so both atoms coincide
    "case1-subnormal-width": experiment(
        strategy=StrategyConfig("case1", trade_size=5e-324), privacy=PrivacySpec(0.0, 5e-324, 2.0)
    ),
    "adaptive-uneven-split": experiment(
        strategy=StrategyConfig("adaptive_random", policies=7, bound=5), replicas=100
    ),
    # the hidden account runs dry, so replicas stop at different rounds
    "chasing-starved": experiment(hidden_x=1.5),
    "adaptive-starved": experiment(strategy=ADAPTIVE, hidden_x=1.5),
    "chasing-starved-64-rounds": experiment(
        strategy=StrategyConfig("noise_chasing"), hidden_x=1.5
    ),
    # LMSR's stopped rows still go through the scalar curve queries
    "lmsr-chasing-starved": lmsr(replicas=40, hidden_x=0.15),
    "lmsr-chasing": lmsr(replicas=40),
    "lmsr-adaptive": lmsr(strategy=ADAPTIVE, replicas=40),
    "lmsr-case2": lmsr(
        strategy=StrategyConfig("case2", trade_size=-0.05, detour_price=1.5),
        true_price=0.5, privacy=PrivacySpec(-0.1, 0.0, 2.0), replicas=40,
    ),
    "csum-truthful": experiment(curve=CSUM, strategy=StrategyConfig("truthful")),
    "csum-adaptive": experiment(curve=CSUM, strategy=ADAPTIVE),
    # one round short of, at, and one past a 4-lane Philox block
    **{
        f"chasing-{n}-rounds": experiment(strategy=StrategyConfig("noise_chasing", max_rounds=n))
        for n in (3, 4, 5)
    },
    # noisy rounds across many Philox blocks
    "chasing-long": experiment(strategy=StrategyConfig("noise_chasing", max_rounds=150), replicas=5),
    "adaptive-long": experiment(
        strategy=StrategyConfig("adaptive_random", policies=2, bound=150), replicas=6
    ),
}


@functools.cache
def reference(name: str):
    return scalar_excess_profit(CASES[name], keep_samples=True)


def assert_bit_identical(got, want) -> None:
    assert got == want
    # == takes 0.0 for -0.0; the bytes do not
    assert np.array(got.samples).tobytes() == np.array(want.samples).tobytes()


SCALAR_STRATEGIES = (
    "truthful_strategy", "noise_chasing_strategy", "case1_deviation", "case2_deviation",
    "run_adaptive",
)


def scalar_replica(*args, **kwargs):
    raise AssertionError("the batched engine ran a replica through a scalar strategy")


def batched(config, **kwargs):
    """estimate_excess_profit with the five scalar strategies raising when called.

    They are replaced in strategies and in harness; in harness the first
    truthful_strategy call, the one deterministic benchmark, goes through.
    """
    benchmark = harness.truthful_strategy
    calls = 0

    def benchmark_only(*args, **kw):
        nonlocal calls
        calls += 1
        if calls > 1:
            scalar_replica()
        return benchmark(*args, **kw)

    with pytest.MonkeyPatch.context() as patch:
        for name in SCALAR_STRATEGIES:
            patch.setattr(strategies, name, scalar_replica)
            patch.setattr(harness, name, scalar_replica, raising=False)
        patch.setattr(harness, "truthful_strategy", benchmark_only)
        return estimate_excess_profit(config, **kwargs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_the_scalar_engine(name):
    assert_bit_identical(batched(CASES[name], keep_samples=True), reference(name))


@pytest.mark.parametrize("name", [
    "chasing-starved", "adaptive-uneven-split", "case2", "adaptive-long",
    "chasing-3-rounds", "chasing-4-rounds", "chasing-5-rounds",
])
def test_small_blocks_and_chunks_change_nothing(name, monkeypatch):
    monkeypatch.setattr(harness, "_BLOCK", 7)
    assert_bit_identical(estimate_excess_profit(CASES[name], keep_samples=True), reference(name))


def test_uniforms_table_stays_bounded_under_many_rounds():
    # both sides of the hidden account starved: every replica stops after one
    # round, but a table of replicas x max_rounds uniforms would take 32 MB
    config = experiment(
        strategy=StrategyConfig("noise_chasing", max_rounds=10**6), replicas=4,
        hidden_x=1.5, hidden_y=2.5,
    )
    tracemalloc.start()
    try:
        got = estimate_excess_profit(config, keep_samples=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert_bit_identical(got, scalar_excess_profit(config, keep_samples=True))


def chunk_case(kind: str, rounds: int) -> ExperimentConfig:
    if kind == "noise_chasing":
        return experiment(strategy=StrategyConfig(kind, max_rounds=rounds), replicas=10)
    # the private cadence leaves the rows at different draws when they refill
    return experiment(strategy=StrategyConfig(kind, policies=3, bound=rounds), replicas=12)


@functools.cache
def chunk_reference(kind: str, rounds: int):
    return scalar_excess_profit(chunk_case(kind, rounds), keep_samples=True)


# rounds one short of, at and one past the uniforms a chunk of Philox blocks
# holds, so that rows refill across its boundary; at _CHUNK = 2 they refill
# every eight draws
@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("block", [harness._BLOCK, 7])
@pytest.mark.parametrize("past", [-1, 0, 1])
@pytest.mark.parametrize("kind", ["noise_chasing", "adaptive_random"])
def test_chunk_boundaries_change_nothing(kind, past, block, chunk, monkeypatch):
    monkeypatch.setattr(harness, "_BLOCK", block)
    monkeypatch.setattr(harness, "_CHUNK", chunk)
    rounds = 4 * chunk + past
    assert_bit_identical(
        batched(chunk_case(kind, rounds), keep_samples=True), chunk_reference(kind, rounds)
    )


def counting(monkeypatch, name: str) -> list:
    """Replace harness.<name> by a wrapper that records its calls; returns the record."""
    calls, target = [], getattr(harness, name)

    def wrapper(*args):
        calls.append(args)
        return target(*args)

    monkeypatch.setattr(harness, name, wrapper)
    return calls


@pytest.fixture
def cold_tables():
    """Empty the tables estimates share, so that a count of _philox calls does not
    depend on what the tests before it computed."""
    harness._key_table.cache_clear()
    harness._block_table.cache_clear()
    harness._policy_rows.cache_clear()


@pytest.mark.usefixtures("cold_tables")
def test_a_chase_computes_its_uniforms_in_one_philox_call(monkeypatch):
    calls = counting(monkeypatch, "_philox")
    estimate_excess_profit(CASES["chasing"])
    assert len(calls) == 1  # 8 rounds of 120 replicas: two blocks each
    assert calls[0][0].shape == (2, 2 * 120)


@pytest.mark.usefixtures("cold_tables")
def test_the_policy_table_computes_its_blocks_in_one_philox_call(monkeypatch):
    calls = counting(monkeypatch, "_philox")
    harness._policy_table(42, 100, REF_SPEC)  # periods span 3: a refusal is 1 in 2**32
    assert len(calls) == 1


@pytest.mark.usefixtures("cold_tables")
def test_a_trade_without_noise_computes_no_noise(monkeypatch):
    """The correction legs and the truthful run draw nothing and price no atoms."""
    def noise(*args):
        raise AssertionError("a trade without noise computed some")

    for name in ("two_point", "_reversal_gains", "_philox"):
        monkeypatch.setattr(harness, name, noise)
    got = estimate_excess_profit(CASES["truthful"], keep_samples=True)
    assert_bit_identical(got, reference("truthful"))


def test_a_round_pays_only_for_the_noise_it_has(monkeypatch):
    """Every trade covers the whole block and draws at most once. An all-noisy
    round places no zero atoms and draws for every row without a mask. A round
    with quiet rows (adaptive's public ones, a chase's stopped ones) gives them
    the zero atom, and a refused row turns quiet; either hands the one draw a
    mask of the rows that take a uniform. Counted by np.where calls inside a
    trade: one for the draw; four for the zero atoms and the quote where some
    row is quiet; one for the fee where some row is quiet or refused; five for
    the refused rows' delta, reserve, Y and atoms."""
    wheres, draws, trades = 0, [], []

    class Numpy:
        """numpy, counting np.where calls."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def where(*args):
            nonlocal wheres
            wheres += 1
            return np.where(*args)

    trade, draw = harness._Batch.trade, harness._Batch._draw

    def traced_trade(self, delta, lower, upper, epsilon, weights):
        before = wheres, len(draws)
        noisy = np.count_nonzero((lower != upper) & (epsilon < math.inf))
        ok, eta = trade(self, delta, lower, upper, epsilon, weights)
        quiet, refused = 0 < noisy < ok.size, np.count_nonzero(ok) < ok.size
        trades.append((noisy > 0, quiet, refused, wheres - before[0], draws[before[1]:]))
        return ok, eta

    def traced_draw(self, take=None):
        # the rows that take a uniform, or None for all of them
        draws.append(None if take is None else int(np.count_nonzero(take)))
        return draw(self, take)

    monkeypatch.setattr(harness, "np", Numpy())
    monkeypatch.setattr(harness._Batch, "trade", traced_trade)
    monkeypatch.setattr(harness._Batch, "_draw", traced_draw)
    assert_bit_identical(estimate_excess_profit(CASES["chasing"], keep_samples=True),
                         reference("chasing"))
    *rounds, correction = trades
    assert rounds == [(True, False, False, 1, [None])] * 8
    assert correction == (False, False, False, 0, [])
    kinds = set()
    for name in ("adaptive", "chasing-starved"):
        trades.clear()
        assert_bit_identical(estimate_excess_profit(CASES[name], keep_samples=True),
                             reference(name))
        for noisy, quiet, refused, where, drawn in trades:
            if noisy:
                kinds.add((quiet, refused))
                assert where == 1 + 4 * quiet + (quiet or refused) + 5 * refused
                assert len(drawn) == 1
                if quiet or refused:  # a mask marking some but not all of the rows
                    assert 0 < drawn[0] < 120
                else:
                    assert drawn == [None]
    assert kinds == {(False, False), (True, False), (False, True), (True, True)}


def summary_or_error(summarize, samples):
    try:
        mean, se, ci = summarize(samples)
    except DomainError as error:
        return str(error)
    return np.array([mean, se, *ci]).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    size=st.integers(1, 10**5), exponent=st.floats(-300.0, 300.0), offset=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=1, exponent=0.0, offset=0.0, seed=0)
@example(size=2, exponent=300.0, offset=5.0, seed=1)  # the squares overflow
@example(size=100, exponent=307.0, offset=5.0, seed=1)  # the sum overflows
@example(size=10**5, exponent=-300.0, offset=0.0, seed=2)
def test_summarize_is_numpy_mean_and_std_bit_for_bit(size, exponent, offset, seed):
    samples = (np.random.default_rng(seed).standard_normal(size) + offset) * 10.0**exponent
    want = summary_or_error(numpy_summary, samples)
    assert summary_or_error(harness._summarize, samples) == want


@contextlib.contextmanager
def carried_y_checked(seen: set):
    """_Batch.trade, asserting after every trade that the Y the batch carries is
    _y_of_x of its X bit for bit; seen collects the kinds of round met."""
    trade = harness._Batch.trade

    def checked(self, delta, lower, upper, epsilon, weights):
        noisy = np.count_nonzero((lower != upper) & (epsilon < math.inf))
        stopped = np.count_nonzero((delta == 0.0) & (lower == 0.0) & (upper == 0.0))
        ok, eta = trade(self, delta, lower, upper, epsilon, weights)
        assert self.y.tobytes() == harness._y_of_x(self.curve, self.x).tobytes()
        n = self.x.size
        seen.add("quiet" if not noisy else "all noisy" if noisy == n else "partly private")
        if stopped:
            seen.add("stopped")
        if np.count_nonzero(ok) < n:
            seen.add("refused")
        return ok, eta

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness._Batch, "trade", checked)
        yield


MARKETS = {
    "cp": {},
    "lmsr": dict(curve=LMSR, initial_x=1.0, true_price=0.8, privacy=PrivacySpec(0.0, 0.2, 2.0)),
    "csum": dict(curve=CSUM),
}
# a hidden account that cannot fund the upper atom of a few trades in a row
STARVED_X = {"cp": 1.5, "lmsr": 0.15, "csum": 1.5}


@pytest.mark.parametrize("family", sorted(MARKETS))
def test_carried_y_meets_every_kind_of_round(family):
    seen = set()
    config = experiment(
        **MARKETS[family], strategy=ADAPTIVE, hidden_x=STARVED_X[family], replicas=40
    )
    with carried_y_checked(seen):
        estimate_excess_profit(config)
    assert {"all noisy", "partly private", "stopped", "refused"} <= seen


BATCH_STATE = ("x", "y", "hidden_x", "hidden_y", "y_out", "fees", "cash", "at", "next_block")


@pytest.mark.parametrize("family, kind", [
    ("cp", "noise_chasing"), ("cp", "adaptive_random"), ("lmsr", "noise_chasing"),
    ("lmsr", "adaptive_random"), ("csum", "adaptive_random"),
])
def test_a_quiet_row_stays_as_it_was(family, kind, monkeypatch):
    """A row the hidden account refuses is left as it was by that trade, and a
    replica that has stopped (refused, or a chase's zero draw) by every trade
    after it up to the final correction: its reserves, sums and stream position
    keep their bits."""
    trade, met = harness._Batch.trade, {"stopped": 0, "refused": 0}
    stopped = np.zeros(40, dtype=bool)  # the replicas of the one block

    def checked(self, delta, lower, upper, epsilon, weights):
        before = {name: getattr(self, name).copy() for name in BATCH_STATE}
        ok, eta = trade(self, delta, lower, upper, epsilon, weights)
        if np.ndim(epsilon) == 0 and epsilon == math.inf:  # a correction leg
            return ok, eta
        met["stopped"] += np.count_nonzero(stopped)
        met["refused"] += np.count_nonzero(~ok)
        quiet = stopped | ~ok
        for name in BATCH_STATE:
            assert getattr(self, name)[quiet].tobytes() == before[name][quiet].tobytes(), name
        stopped[:] = quiet if kind == "adaptive_random" else quiet | (eta == 0.0)
        return ok, eta

    monkeypatch.setattr(harness._Batch, "trade", checked)
    config = experiment(
        **MARKETS[family], strategy=StrategyConfig(kind, policies=10, bound=8),
        hidden_x=STARVED_X[family], replicas=40,
    )
    assert_bit_identical(
        estimate_excess_profit(config, keep_samples=True),
        scalar_excess_profit(config, keep_samples=True),
    )
    assert met["stopped"] and met["refused"]


@given(
    family=st.sampled_from(sorted(MARKETS)),
    kind=st.sampled_from(["noise_chasing", "adaptive_random"]),
    starved=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    width=st.floats(0.01, 2.0),
    epsilon=st.floats(0.05, 8.0),
    replicas=st.integers(1, 30),
)
@settings(max_examples=30, deadline=None)
def test_property_the_carried_y_is_y_of_x(family, kind, starved, seed, width, epsilon, replicas):
    market = MARKETS[family]
    spec = market.get("privacy", REF_SPEC)
    config = experiment(
        **{**market, "privacy": PrivacySpec(spec.lower, spec.lower + width * spec.width, epsilon)},
        strategy=StrategyConfig(kind, max_rounds=6, policies=3, bound=6),
        hidden_x=STARVED_X[family] if starved else 1e9, seed=seed, replicas=replicas,
    )
    seen = set()
    try:
        with carried_y_checked(seen):
            estimate_excess_profit(config)
    except NoisyCfmmError:  # every trade before the failing one was checked
        return
    assert seen


SHARED_ARMS = ("chasing", "chasing-fee-zero", "adaptive", "case1", "case2")


@pytest.mark.usefixtures("cold_tables")
def test_estimates_on_one_seed_and_range_share_their_streams(monkeypatch):
    """The arms of one experiment read the same replica streams (common random
    numbers), so each table is computed once: the unpriced chase and case2 reuse
    the blocks of the chase and case1, adaptive's replicas those of the chase,
    and a second pass computes nothing."""
    calls = counting(monkeypatch, "_philox")
    for cold in (True, False):
        made = []
        for name in SHARED_ARMS:
            want, before = reference(name), len(calls)
            assert_bit_identical(batched(CASES[name], keep_samples=True), want)
            made.append(len(calls) - before)
        # adaptive computes its policy table's blocks; case1 draws one block, not two
        assert made == ([1, 0, 1, 1, 0] if cold else [0] * 5)


def test_shared_tables_are_read_only_and_bounded():
    tables = (
        harness._key_table(42, 0, 0, 120), harness._block_table(42, 0, 0, 120, 2),
        harness._policy_table(42, 100, REF_SPEC),
    )
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0
    for start in range(3 * harness._TABLES):
        harness._policy_rows(7, start, start + 1, 2.0, 2.0)
    for table in (harness._key_table, harness._block_table, harness._policy_rows):
        info = table.cache_info()
        assert info.currsize == info.maxsize == harness._TABLES


@pytest.mark.usefixtures("cold_tables")
def test_the_policy_table_holds_at_most_a_block_of_policies_per_entry(monkeypatch):
    want = harness._policy_table(42, 20, REF_SPEC)
    harness._policy_rows.cache_clear()
    monkeypatch.setattr(harness, "_BLOCK", 7)
    got = harness._policy_table(42, 20, REF_SPEC)
    assert got.tobytes() == want.tobytes()
    assert harness._policy_rows.cache_info().currsize == 3  # policies 0-6, 7-13 and 14-19
    # a second estimate on the same seed and spec derives nothing
    harness._policy_table(42, 20, REF_SPEC)
    assert harness._policy_rows.cache_info().misses == 3


@pytest.mark.parametrize("kind", ["noise_chasing", "case1", "adaptive_random"])
@given(
    seed=st.integers(0, 2**32 - 1),
    lower=st.floats(-3.0, 3.0),
    width=st.floats(0.0, 4.0),
    at=st.floats(0.0, 1.0),
    epsilon=st.floats(0.05, 8.0),
    true_price=st.floats(0.5, 3.0),
    mu=st.one_of(st.none(), st.floats(-0.5, 0.5)),
)
# large epsilon, where 1 - tanh(eps/2) cancels, with the trade at either end
@example(seed=0, lower=0.0, width=2.0, at=1.0, epsilon=40.0, true_price=1.5, mu=None)
@example(seed=0, lower=0.0, width=2.0, at=0.0, epsilon=709.0, true_price=1.5, mu=None)
@settings(max_examples=25, deadline=None)
def test_property_matches_the_scalar_engine(
    kind, seed, lower, width, at, epsilon, true_price, mu
):
    config = experiment(
        seed=seed, true_price=true_price,
        privacy=PrivacySpec(lower, lower + width, epsilon),
        strategy=StrategyConfig(
            kind, max_rounds=6, trade_size=lower + at * width, policies=4, bound=6
        ),
        noise=NoiseConfig() if mu is None else NoiseConfig("biased_binary", mu),
        replicas=24,
    )
    assert outcome(batched, config) == outcome(scalar_excess_profit, config)


def outcome(engine, config):
    try:
        result = engine(config, keep_samples=True)
    except Exception as e:  # the engines must agree on the error too
        return type(e), str(e)
    return repr(result)  # float repr round-trips, tells -0.0 from 0.0 and NaN from NaN


ERRORS = {
    "case2-detour-unsupported": (
        experiment(strategy=CASE2, true_price=0.5, privacy=PrivacySpec(-2.0, 0.0, 2.0),
                   hidden_x=0.5),
        HiddenAccountError,
    ),
    "case1-true-price-below-spot": (experiment(strategy=CASE1, true_price=0.5), ValueError),
    "chasing-domain-exit": (experiment(curve=CSUM), DomainError),
    # every reserve stays on the curve, but the quote overflows to inf
    "case1-fee-not-finite": (
        experiment(
            curve=TradingCurve.constant_product(1e300, x_max=1e102), initial_x=1e100,
            strategy=StrategyConfig("case1", trade_size=1e99), privacy=PrivacySpec(0.0, 2e99, 2.0),
            true_price=2e100,
        ),
        DomainError,
    ),
    # ExperimentConfig refuses a negative seed; one set past that check
    # still fails the same way in both engines
    "negative-seed": (
        unchecked(experiment(strategy=StrategyConfig("truthful")), seed=-1), ValueError
    ),
    "epsilon-below-floor": (experiment(privacy=PrivacySpec(0.0, 2.0, 1e-7)), SpecViolationError),
    "case1-outside-interval": (
        experiment(strategy=StrategyConfig("case1", trade_size=2.1), true_price=3.0),
        SpecViolationError,
    ),
    # replicas 0..19 run clean; replica 20 leaves the reserve window
    "adaptive-domain-exit-mid-run": (
        experiment(
            curve=TradingCurve(Family.CONSTANT_PRODUCT, 1e4, x_max=106.0), true_price=0.95,
            strategy=ADAPTIVE, replicas=40,
        ),
        DomainError,
    ),
    # replica 0 leaves the reserve window on its 8th trade, replicas 1 and 2
    # on their 3rd and 2nd: the error is replica 0's, met later in the batch
    "adaptive-error-order": (
        experiment(
            curve=TradingCurve(Family.CONSTANT_PRODUCT, 1e4, x_max=104.0), true_price=0.95,
            strategy=ADAPTIVE, replicas=40, seed=1,
        ),
        DomainError,
    ),
}


@pytest.mark.parametrize("block", [harness._BLOCK, 8])
@pytest.mark.parametrize("name", sorted(ERRORS))
def test_errors_match_the_scalar_engine(name, block, monkeypatch):
    config, error = ERRORS[name]
    monkeypatch.setattr(harness, "_BLOCK", block)
    with pytest.raises(error) as got:
        batched(config)
    with pytest.raises(error) as want:
        scalar_excess_profit(config)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
