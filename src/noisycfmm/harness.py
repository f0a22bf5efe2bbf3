"""Experiment harness: Monte Carlo estimators, witness scans, noise design.

Everything here is deterministic given a seed. Each replica draws its
randomness from a counter-based generator keyed by (seed, replica index), so
replica i sees the same noise stream no matter which fee policy or strategy
variant is being compared (common random numbers), results do not depend on
execution order, and reruns are bit-identical.

estimate_excess_profit runs the replicas of an experiment together, as numpy
arrays with one entry per replica, in blocks. Its reference is the scalar
engine: the strategy functions (truthful_strategy, noise_chasing_strategy,
case1_deviation, case2_deviation, run_adaptive) run replica by replica, which
the tests keep as an oracle. The batched step evaluates the same float
operations in the same order, and transcendental curve queries through the
same scalar math calls, so every sample is bit-identical to that loop's.
A replica that would raise there raises the error market.execute_trade
gives on its arrays, the lowest such replica first. A trade pays only for
the rows it has: one over the whole batch reads and updates the state arrays
in place, with no gathers or scatters; one in which every row is noisy
places no zero atoms; one in which some rows are quiet gives those the zero
atom. There is one draw path: a noisy trade reads a uniform for every row it
keeps, and only its noisy rows take theirs. The batch carries each
replica's Y reserve, so a trade's pre-trade Y is the last trade's post-trade
Y and is never recomputed.

replica_rng defines the noise streams, one numpy Generator at a time;
random policy j draws its parameters from numpy's Generator on
SeedSequence(seed, spawn_key=(1, j)), as replica i does on spawn key (0, i).
The batched engine computes the same streams as arrays over all replicas of
a block (_stream_keys, _philox) with the integer code streams runs for one
replica, so it never loads numpy.random: uniform c of replica i is lane
c % 4 of its Philox block c // 4 + 1, bit for bit what replica_rng(seed,
i).random() returns as its c-th draw. Each replica holds a chunk of up to
_CHUNK of the blocks it can draw, and one _philox call refills every replica
that has used its chunk up. Three bounded tables of read-only arrays hold the
keys of a replica range (_key_table), its first chunk (_block_table) and the
parameters of a range of random policies (_policy_rows), so every estimate on
the same seed, range, chunk and base spec computes them once: a batch looks
up its keys when it starts and its first chunk at its first draw, so a run
without noise computes no blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .codec import choice, fields_of, integer, number, optional, parse_fields, parse_kind
from .curve import Family, TradingCurve, parse_curve
from .errors import (
    ConfigError, DomainError, HiddenAccountError, NoisyCfmmError, OptimizationError,
    SpecViolationError,
)
from .market import FeePolicy, MarketState, execute_trade, parse_fee_policy, trade_fee
from .privacy import (
    EPSILON_FLOOR,
    NoiseAtom,
    NoiseDistribution,
    PLDPReport,
    PrivacySpec,
    biased_binary,
    biased_factory,
    binary_mechanism,
    mean_tilt,
    parse_privacy,
    pldp_report,
    two_point,
    two_point_weights,
)
from .strategies import DEFAULT_MAX_ROUNDS, check_case1, check_case2, truthful_strategy
from .streams import MASK32, ReplicaStream, absorb, philox_block, philox_key, seeded_pool

# Two-sided 99% normal quantile; CIs here use the normal approximation.
Z99 = 2.5758293035489004

# Each CI expectation a config may state, and its test on the CI's ends.
_EXPECTATION_TESTS: dict[str, Callable[[float, float], bool]] = {
    "ci_contains_zero": lambda lo, hi: lo <= 0.0 <= hi,
    "ci_above_zero": lambda lo, hi: lo > 0.0,
    "ci_below_zero": lambda lo, hi: hi < 0.0,
    "ci_contains_or_below_zero": lambda lo, hi: lo <= 0.0,
}
EXPECTATIONS = tuple(_EXPECTATION_TESTS)


def replica_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one replica, from a splittable counter-based generator."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0, index))))


def _stream_keys(seed: int, k: int, index: np.ndarray) -> np.ndarray:
    """Philox keys of SeedSequence(seed, spawn_key=(k, i)) for each i in index, shape (2, n).

    The seed and k are the same for every stream, so their pool is computed
    once, in ints; only the one or two words of each index (two from 2**32
    on) are absorbed as arrays.
    """
    pool, const = absorb(*seeded_pool(seed, k), index & MASK32)
    pool = np.stack(pool)
    wide = np.flatnonzero(index >> 32)
    if wide.size:  # absorb iterates over the four rows of pool[:, wide]
        pool[:, wide] = absorb(pool[:, wide], const, index[wide] >> 32)[0]
    return np.stack(philox_key(pool))


def _philox(key: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """streams.philox_block of each key column at its counter, shape (4, n). The
    counter is cast to uint64: on int64 its 32-bit halves' products overflow."""
    return np.stack(philox_block(key, np.asarray(counter, dtype=np.uint64)))


# -- the tables estimates share ---------------------------------------------------
#
# A range spans at most _BLOCK streams, so an entry holds at most 64 KiB of
# keys, chunk * 128 KiB of blocks or 224 KiB of policy rows: at chunk 2, at
# most 4, 16 and 14 MiB per table, 34 MiB together. _TABLES lets the five
# test_04 arms share theirs, 25 ranges of 10**5 replicas at chunks 1 and 2 and
# one policy range (about 11 MiB).
_TABLES = 64


@functools.lru_cache(maxsize=_TABLES)
def _key_table(seed: int, k: int, start: int, stop: int) -> np.ndarray:
    """_stream_keys of streams start..stop-1 of kind k, read-only."""
    keys = _stream_keys(seed, k, np.arange(start, stop, dtype=np.uint64))
    keys.flags.writeable = False
    return keys


@functools.lru_cache(maxsize=_TABLES)
def _block_table(seed: int, k: int, start: int, stop: int, chunk: int) -> np.ndarray:
    """Philox blocks 1..chunk of streams start..stop-1 of kind k, read-only, shape
    (4, chunk * n): column b * n + i is block b + 1 of stream start + i."""
    n = stop - start
    counter = np.repeat(np.arange(1, chunk + 1, dtype=np.uint64), n)
    words = _philox(np.tile(_key_table(seed, k, start, stop), chunk), counter)
    words.flags.writeable = False
    return words


def _unit(words: np.ndarray) -> np.ndarray:
    """Generator.random() of each 64-bit output: its top 53 bits over 2**53."""
    return (words >> np.uint64(11)) * 2.0**-53


def _lemire_rejects(word: np.ndarray, span: int) -> np.ndarray:
    """Where numpy's 32-bit Lemire draw from [0, span) refuses word and draws again."""
    return (word * span & MASK32) < (2**32 - span) % span


def _bounded(key: np.ndarray, block: int, span: int, lanes: np.ndarray) -> np.ndarray:
    """Generator.integers(0, span) of each key column's stream, from Philox block ``block`` on:
    numpy's 32-bit Lemire draw, w * span >> 32 of the first word w it does not refuse. The
    words are the low, then the high half of lanes 0-3 of each block in turn; ``lanes``
    is block ``block`` of every column, and later blocks are computed for the columns
    that refuse all its words."""
    value = np.empty(key.shape[1], dtype=np.uint64)
    rows = np.arange(key.shape[1])
    k = 0
    while rows.size:
        if k and k % 8 == 0:
            lanes = _philox(key[:, rows], np.full(rows.size, block + k // 8, dtype=np.uint64))
        word = lanes[k // 2 % 4] >> 32 * (k % 2) & MASK32
        refused = _lemire_rejects(word, span)
        value[rows[~refused]] = word[~refused] * span >> 32
        rows, lanes = rows[refused], lanes[:, refused]
        k += 1
    return value


# -- strict config parsing ----------------------------------------------------

# The fields each noise and strategy kind takes: the parsers read them and
# the JSON forms write them, so each table is the one statement of its kinds.
_NOISE_FIELDS = {"binary": {}, "biased_binary": {"mu": number}}
_STRATEGY_FIELDS = {
    "truthful": {},
    "noise_chasing": {"max_rounds": integer},
    "case1": {"trade_size": number},
    "case2": {"trade_size": number, "detour_price": number},
    "adaptive_random": {"policies": integer, "bound": integer},
}
STRATEGY_KINDS = tuple(_STRATEGY_FIELDS)


# The least and the largest value of each count. Replicas and policies size
# arrays (8 bytes a replica, 48 a policy); rounds cost time, as a chase
# whose noise never draws zero runs all of them. The noise LP over m inputs
# and n outputs has m*n + n variables and an A_ub of 2*m*n rows, two
# nonzeros each. At 50 x 100 that is 10,000 rows, which HiGHS solves in
# 2.2 s (2.4 s for optimize_noise_lp, 0.1 GB peak RSS) on a 2-core Xeon. Its
# iterations grow faster than its rows (1,529 at 25 x 49, 7,112 at 50 x 100),
# so the ceiling bounds the solve time.
_COUNT_LIMITS = {
    "replicas": (1, 10**8), "policies": (1, 10**6), "max_rounds": (0, 10**6), "bound": (0, 10**6),
    "n_inputs": (1, 50), "n_outputs": (1, 100),
}


def _check_count(where: str, name: str, value: int) -> None:
    least, most = _COUNT_LIMITS[name]
    if value < least:
        raise ConfigError(f"{where} field '{name}' must be at least {least}, got {value}")
    if value > most:
        raise ConfigError(f"{where} field '{name}' must be at most {most}, got {value}")


@dataclass(frozen=True, slots=True)
class NoiseConfig:
    kind: str = "binary"  # "binary" | "biased_binary"
    mu: float = 0.0

    @classmethod
    def from_json_obj(cls, obj: dict, where: str = "noise") -> "NoiseConfig":
        return cls(**parse_kind(obj, "kind", _NOISE_FIELDS, ("mu",), where, default="binary"))

    def _json_shape(self) -> dict:
        return {"kind": self.kind, **{k: getattr(self, k) for k in _NOISE_FIELDS[self.kind]}}

    def factory(self) -> Callable[[float, PrivacySpec], NoiseDistribution]:
        if self.kind == "binary":
            return binary_mechanism
        return biased_factory(self.mu)


@dataclass(frozen=True, slots=True)
class StrategyConfig:
    kind: str
    max_rounds: int = DEFAULT_MAX_ROUNDS
    trade_size: float = 1.0
    detour_price: float | None = None
    policies: int = 100
    bound: int = 8

    def __post_init__(self) -> None:
        for name in ("max_rounds", "policies", "bound"):
            _check_count("strategy", name, getattr(self, name))

    @classmethod
    def from_json_obj(cls, obj: dict, where: str = "strategy") -> "StrategyConfig":
        return cls(**parse_kind(obj, "kind", _STRATEGY_FIELDS, ("detour_price",), where))

    def _json_shape(self) -> dict:
        return {"kind": self.kind, **{k: getattr(self, k) for k in _STRATEGY_FIELDS[self.kind]}}


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything one excess-profit experiment needs, JSON round-trippable."""

    curve: TradingCurve
    initial_x: float
    true_price: float
    privacy: PrivacySpec
    strategy: StrategyConfig
    fee_policy: FeePolicy = field(default_factory=FeePolicy.noise_fee)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    replicas: int = 10000
    seed: int | None = None
    hidden_x: float = 1e9
    hidden_y: float = 1e9
    expect: str | None = None

    def __post_init__(self) -> None:
        _check_count("config", "replicas", self.replicas)
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"config field 'seed' must be at least 0, got {self.seed}")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentConfig":
        required = ("curve", "initial_x", "true_price", "privacy", "strategy")
        return cls(**parse_fields(obj, _EXPERIMENT_FIELDS, required, "config"))

    def initial_state(self) -> MarketState:
        return MarketState(self.curve, self.initial_x, self.hidden_x, self.hidden_y)

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("randomized experiment requires an explicit seed")
        return self.seed


_EXPERIMENT_FIELDS = {
    "curve": parse_curve,
    "initial_x": number,
    "true_price": number,
    "privacy": parse_privacy,
    "strategy": StrategyConfig.from_json_obj,
    "fee_policy": parse_fee_policy,
    "noise": NoiseConfig.from_json_obj,
    "replicas": integer,
    "seed": optional(integer),
    "hidden_x": number,
    "hidden_y": number,
    "expect": optional(choice(*EXPECTATIONS)),
}


# -- excess-profit estimation -------------------------------------------------


@dataclass(frozen=True, slots=True)
class ExcessProfitResult:
    strategy: str
    fee_policy: str
    mean: float
    std_error: float
    ci99: tuple[float, float]
    replicas: int
    truthful_profit: float
    per_policy_means: tuple[float, ...] | None = None
    samples: tuple[float, ...] | None = None  # per-replica detail, kept on request

    def _json_shape(self) -> dict:
        """The fields but the samples, per-policy means only where there are any."""
        obj = fields_of(self, "samples")
        if self.per_policy_means is None:
            del obj["per_policy_means"]
        return {**obj, "variance_reduction": "common_random_numbers"}


def _summarize(samples: np.ndarray) -> tuple[float, float, tuple[float, float]]:
    """Mean, standard error and 99% CI; one that overflows raises DomainError.

    The mean and the standard deviation are np.mean and np.std(ddof=1) bit for
    bit, in numpy's own steps: the pairwise sum over the count, then the sum of
    the squared deviations from that mean over the count less one.
    """
    n = samples.size
    with np.errstate(all="ignore"):  # reported below, not warned about
        mean, se = float(np.add.reduce(samples)) / n, 0.0
        if n > 1:
            deviation = samples - mean
            deviation *= deviation
            se = math.sqrt(float(np.add.reduce(deviation)) / (n - 1)) / math.sqrt(n)
    ci = (mean - Z99 * se, mean + Z99 * se) if n > 1 else (mean, mean)
    for name, value in zip(("mean", "standard error", "CI end", "CI end"), (mean, se, *ci)):
        if not math.isfinite(value):
            raise DomainError(f"excess-profit {name} {value} is not finite")
    return mean, se, ci


# A random policy draws, in this order, uniforms for its aggression, offset,
# width factor and epsilon factor, then its private period from integers().
_POLICY_UNIFORMS = ((0.2, 1.2), (-0.4, 0.4), (0.5, 2.0), (0.5, 2.0))
_POLICY_PERIODS = (1, 4)


def _scale_policy(draws: Sequence, width: float, epsilon: float) -> tuple:
    """Aggression, offset, width and epsilon from a policy's four uniforms, on a
    base spec of this width and epsilon."""
    aggression, offset, width_factor, epsilon_factor = draws
    return aggression, offset * max(width, 1.0), width * width_factor, epsilon * epsilon_factor


@functools.lru_cache(maxsize=_TABLES)
def _policy_rows(seed: int, start: int, stop: int, width: float, epsilon: float) -> np.ndarray:
    """Rows start..stop-1 of _policy_table on a base spec of this width and epsilon,
    read-only. Policy j draws its parameters from numpy's Generator on
    SeedSequence(seed, spawn_key=(1, j)): Generator.uniform's low + (high - low) * u
    on lanes 0-3 of Philox block 1, then integers(*_POLICY_PERIODS) from block 2 on,
    both blocks from one _block_table entry."""
    first, top = _POLICY_PERIODS
    n = stop - start
    blocks = _block_table(seed, 1, start, stop, 2)
    key = _key_table(seed, 1, start, stop)
    period = first + _bounded(key, 2, top - first, blocks[:, n:])
    uniforms = _unit(blocks[:, :n])
    draws = [low + (high - low) * u for (low, high), u in zip(_POLICY_UNIFORMS, uniforms)]
    params = _scale_policy(draws, width, epsilon)
    weights = zip(*map(two_point_weights, params[3].tolist()))
    rows = np.column_stack([*params, period, *weights])
    rows.flags.writeable = False
    return rows


def _policy_table(seed: int, n_policies: int, base_spec: PrivacySpec) -> np.ndarray:
    """Random policies 0..n_policies-1, one row each: aggression, offset, width,
    epsilon, private period and the two_point_weights of the epsilon.

    The third table estimates share, beside _key_table and _block_table: the
    rows of _BLOCK policies at a time are one _policy_rows entry, so every
    estimate on the same seed and base spec derives them once. A table of one
    entry is that entry, read-only."""
    width, epsilon = base_spec.width, base_spec.epsilon
    parts = [
        _policy_rows(seed, start, min(start + _BLOCK, n_policies), width, epsilon)
        for start in range(0, n_policies, _BLOCK)
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# -- the batched replica engine --------------------------------------------------

# Replicas run together in blocks of at most _BLOCK, and each replica holds
# at most _CHUNK Philox blocks (4 * _CHUNK uniforms) at a time, so memory
# stays bounded whatever the replica count and the number of rounds. A row
# computes its whole chunk even if its replica stops before drawing it, so
# _CHUNK stays at the largest chunk the benchmark times (an 8-round chase).
_BLOCK = 4096
_CHUNK = 2


def _chunk_rows(words: np.ndarray, chunk: int) -> np.ndarray:
    """The uniforms of (4, chunk * n) words laid out as a _block_table entry, one
    row of 4 * chunk per stream: entry c is lane c % 4 of its block c // 4."""
    return _unit(words).reshape(4, chunk, -1).T.reshape(-1, 4 * chunk)


class _Failed(Exception):
    """args: a replica's index and the error it raises in the scalar engine."""


def _y_of_x(curve: TradingCurve, x: np.ndarray) -> np.ndarray:
    """TradingCurve.y_of_x at each point, all of them inside the domain.

    LMSR points go through the scalar method one by one, here and in
    _reversal_gains: numpy's exp and log may round differently from math's.
    """
    if curve.family is Family.CONSTANT_PRODUCT:
        return curve.level / x
    if curve.family is Family.CONSTANT_SUM:
        return curve.level - curve.slope * x
    return np.array([curve.y_of_x(v) for v in x.tolist()])


def _reversal_gains(
    curve: TradingCurve, s: np.ndarray, lo: np.ndarray, hi: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """TradingCurve.reversal_gain at each (s, lo) and each (s, hi), all inside the domain."""
    if curve.family is Family.LMSR:  # one per-state gain per entry of s serves both atoms
        gains = [curve.reversal_gains(x) for x in s.tolist()]
        return tuple(np.array([g(e) for g, e in zip(gains, eta.tolist())]) for eta in (lo, hi))
    if curve.family is Family.CONSTANT_SUM:
        return np.zeros(s.size), np.zeros(s.size)
    # s^3 > 0 on the curve's domain, so eta = 0 gives 0 here too; inf where the fee overflows
    ss = s * s  # s * s * (s + eta) is (s * s) * (s + eta)
    return curve.level * lo * lo / (ss * (s + lo)), curve.level * hi * hi / (ss * (s + hi))


class _Batch:
    """Replicas start..stop-1 of one experiment, one array entry per replica.

    The arrays hold what the scalar engine keeps per replica: MarketState's
    visible reserve and hidden account, and the running sums of y_out, fee
    and external cash that _Runner.finish totals. They also carry each
    replica's Y reserve, y_of_x of its X reserve: a trade's pre-trade Y is the
    post-trade Y of the one before it, so no trade recomputes it. Replica i
    takes its uniforms from the stream replica_rng(seed, i) defines, one per
    noisy trade, as NoiseDistribution.sample does.
    """

    def __init__(
        self, config: ExperimentConfig, state0: MarketState, seed: int, start: int, stop: int,
    ) -> None:
        n = stop - start
        self.start = start
        self.curve = config.curve
        self.true_price = config.true_price
        self.fee_policy = config.fee_policy
        self.factory = config.noise.factory()
        self.mu = config.noise.mu if config.noise.kind == "biased_binary" else None
        self.rejection_fails = config.strategy.kind in ("case1", "case2")
        self.x = np.full(n, state0.x, dtype=float)
        # the benchmark, run first, has already read y_of_x at state0.x
        self.y = np.full(n, self.curve.y_of_x(state0.x), dtype=float)
        self.hidden_x = np.full(n, state0.hidden_x, dtype=float)
        self.hidden_y = np.full(n, state0.hidden_y, dtype=float)
        self.y_out = np.zeros(n)
        self.fees = np.zeros(n)
        self.cash = np.zeros(n)
        self.stream = seed, 0, start, stop
        self.key = _key_table(*self.stream)  # eager: a negative seed fails here
        # the uniforms a replica can draw: one per round, at most one for case1 and case2
        strategy = config.strategy
        bound = {"noise_chasing": strategy.max_rounds, "adaptive_random": strategy.bound}
        self.chunk = min(max(1, -(-bound.get(strategy.kind, 1) // 4)), _CHUNK)
        self.lanes = None  # each row's chunk of Philox blocks, from the first draw on
        self.at = np.zeros(n, dtype=np.intp)  # uniforms each row has drawn from its chunk
        self.next_block = np.full(n, self.chunk + 1, dtype=np.uint64)  # of its next chunk

    def _draw(self, rows: np.ndarray, take: np.ndarray | None = None) -> np.ndarray:
        """The next uniform of each replica in rows; with a mask ``take``, only the
        rows it marks draw one.

        Uniform c of a row is lane c % 4 of its block c // 4 + 1. A row holds
        a chunk of consecutive blocks. The first chunk of every row comes from
        the shared _block_table; the drawing rows that have used a chunk up
        get the next one, all of them from one _philox call. Each drawing row
        advances by one. A row that does not draw reads the uniform at its
        position, clamped to its chunk, and keeps its position: a round that
        is partly private hands every row here, and its public rows' zero
        atoms make what they read irrelevant. A draw over every row of the
        batch reads and updates the positions without a gather.
        """
        chunk = self.chunk
        if self.lanes is None:
            self.lanes = _chunk_rows(_block_table(*self.stream, chunk), chunk)
        whole = rows.size == self.at.size
        at = self.at if whole else self.at[rows]
        spent = at == 4 * chunk
        if take is not None:
            spent &= take
        if np.count_nonzero(spent):
            fresh = rows[spent]
            counter = self.next_block[fresh] + np.arange(chunk, dtype=np.uint64)[:, None]
            self.next_block[fresh] += np.uint64(chunk)
            words = _philox(np.tile(self.key[:, fresh], chunk), counter.ravel())
            self.lanes[fresh] = _chunk_rows(words, chunk)
            at[spent] = 0
        if take is None:
            u = self.lanes[rows, at]
            at += 1
        else:
            u = self.lanes[rows, np.minimum(at, 4 * chunk - 1)]
            at += take
        if not whole:
            self.at[rows] = at
        return u

    def trade(
        self, rows: np.ndarray, delta: np.ndarray, lower: np.ndarray, upper: np.ndarray,
        epsilon: np.ndarray | float, weights: tuple,
    ) -> tuple[np.ndarray, np.ndarray]:
        """execute_trade plus the external hedge, for each replica in rows.

        The masking spec is [lower, upper] with budget epsilon, and weights
        is two_point_weights(epsilon), a pair of floats or of arrays.
        Returns the mask of rows the hidden account supported (the others are
        left as they were) and the noise each supported row executed. Raises
        _Failed for the first row on which execute_trade would raise anything
        but HiddenAccountError (anything at all for case1 and case2).

        A trade pays only for the rows it has. One that covers every row of
        the batch reads and updates the state arrays in place, with no
        gathers or scatters. One in which every row is noisy has no zero
        atoms to place; one in which only some are gives the others the zero
        atom. Either draws once, for every row it keeps. One without noise
        quotes, supports and draws nothing.
        """
        curve = self.curve
        # rows ascend without repeats, so a trade with as many rows as the batch covers it
        whole = rows.size == self.x.size
        state = self.x, self.y, self.hidden_x, self.hidden_y
        x, y_pre, hidden_x, hidden_y = state if whole else (a[rows] for a in state)
        # the PrivacySpec, execute_trade's and binary_mechanism's checks: the width
        # is finite only for finite bounds that do not overflow it, and a trade in
        # [lower, upper] has lower <= upper
        valid = (
            np.isfinite(upper - lower) & (epsilon > 0.0) & (lower <= delta) & (delta <= upper)
        )
        # a degenerate spec, a point or an infinite budget, gets the zero atom
        noisy = (lower != upper) & (epsilon < math.inf)
        count = np.count_nonzero(noisy)
        quiet, every = count == 0, count == rows.size
        # noise_fee: the post-trade and noised reserves stay on the curve
        s = x + delta
        low = high = s
        if not quiet:  # some row has noise to quote, support and draw
            lo, hi, p_lo, p_hi = two_point(delta, lower, upper, weights)
            # NoiseDistribution refuses only non-finite atoms here, and those put s + lo
            # or s + hi off the finite domain: for a trade in its interval each
            # probability is in [0, 1] and they sum to 1, up to ulps. A NaN epsilon,
            # which this lets through, is invalid above.
            fit = epsilon >= EPSILON_FLOOR
            if self.mu is not None:  # biased_binary: the same atoms with mean mu
                # coincident atoms, which biased_binary refuses, leave p_hi non-finite
                p_lo, p_hi = mean_tilt(lo, hi, self.mu)
                fit &= (0.0 <= p_hi) & (p_hi <= 1.0)
            if not every:  # the rows with a degenerate spec get the zero atom
                fit |= ~noisy
                lo, hi = np.where(noisy, lo, 0.0), np.where(noisy, hi, 0.0)
            valid &= fit
            s_lo, s_hi = s + lo, s + hi
            # a row inside its interval has lo <= hi; a NaN anywhere stays NaN and
            # fails both tests below
            low, high = np.minimum(s, s_lo), np.maximum(s, s_hi)
        valid &= (curve.x_lo <= low) & (high <= curve.x_hi)
        trade = rows, delta, lower, upper, epsilon
        if np.count_nonzero(valid) < rows.size:
            raise self._failure(~valid, trade)
        try:  # LMSR goes through the scalar curve queries, which raise as execute_trade's do
            y_s = _y_of_x(curve, s)
            if quiet:  # a row without noise needs no support and stays at s
                ok, fee, eta, post, y_post = ~noisy, 0.0, np.zeros(rows.size), s, y_s
            else:
                gain_lo, gain_hi = _reversal_gains(curve, s, lo, hi)
                if every:  # every p is finite, and a zero atom's gain is +0.0
                    quote = 0.0 + p_lo * gain_lo + p_hi * gain_hi
                else:  # a public row's probabilities may be NaN
                    quote = (
                        0.0 + np.where(lo == 0.0, 0.0, p_lo * gain_lo)
                        + np.where(hi == 0.0, 0.0, p_hi * gain_hi)
                    )
                finite = np.isfinite(quote)
                if np.count_nonzero(finite) < rows.size:
                    raise self._failure(~finite, trade)
                # support_check: can the hidden account fund every atom? The atoms
                # straddle zero (|center| <= half <= big), so only hi can need X and
                # only lo can need Y.
                ok = ~(
                    ((hi > 0.0) & (hidden_x < hi))
                    | ((lo < 0.0) & (hidden_y < _y_of_x(curve, s_lo) - y_s))
                )
                if np.count_nonzero(ok) < rows.size:  # only noisy rows: every still holds
                    if self.rejection_fails:
                        raise self._failure(~ok, trade)
                    rows, delta, s, y_s, y_pre, lo, hi, p_lo, noisy, quote, hidden_x, hidden_y = (
                        a[ok] for a in (
                            rows, delta, s, y_s, y_pre, lo, hi, p_lo, noisy, quote, hidden_x,
                            hidden_y,
                        )
                    )
                    whole = False
                fee = self.fee_policy.charge(quote)
                if every:
                    u = self._draw(rows)
                else:  # a public row draws nothing, pays nothing and keeps its zero atom
                    fee = np.where(noisy, fee, 0.0)
                    u = self._draw(rows, noisy)
                eta = np.where(u < p_lo, lo, hi)
                post = s + eta
                y_post = _y_of_x(curve, post)
        except NoisyCfmmError:
            raise self._failure(np.ones(trade[0].size, dtype=bool), trade) from None
        y_out, cash = y_pre - y_s, self.true_price * delta
        hidden_x, hidden_y = hidden_x - eta, hidden_y + (y_s - y_post)
        if whole:
            self.y_out += y_out
            self.fees += fee
            self.cash -= cash
            self.x, self.y, self.hidden_x, self.hidden_y = post, y_post, hidden_x, hidden_y
        else:
            self.y_out[rows] += y_out
            self.fees[rows] += fee
            self.cash[rows] -= cash
            self.x[rows], self.y[rows] = post, y_post
            self.hidden_x[rows], self.hidden_y[rows] = hidden_x, hidden_y
        return ok, eta

    def _failure(self, where: np.ndarray, trade: tuple) -> _Failed:
        """The first of rows[where] whose trade fails its replica, with the error
        execute_trade raises there; trade is trade()'s (rows, delta, lower,
        upper, epsilon). Its draw cannot change the error: the queries after it
        meet only reserves its checks passed, or (LMSR's upper atom) one above.
        """
        rows, delta, lower, upper, epsilon = np.broadcast_arrays(*trade)
        for k in np.flatnonzero(where).tolist():
            r = rows[k].item()
            reserves = (a[r].item() for a in (self.x, self.hidden_x, self.hidden_y))
            state = MarketState(self.curve, *reserves)
            try:
                spec = PrivacySpec(*(a[k].item() for a in (lower, upper, epsilon)))
                execute_trade(
                    state, delta[k].item(), spec, ReplicaStream(0, 0),
                    dist_factory=self.factory, fee_policy=self.fee_policy,
                )
            except NoisyCfmmError as error:
                if self.rejection_fails or not isinstance(error, HiddenAccountError):
                    return _Failed(self.start + r, error)
        raise AssertionError("the batch failed a trade that execute_trade accepts")

    def trade_to(self, rows: np.ndarray, target: float) -> None:
        """Non-private trades landing each replica's reserve on ``target``."""
        delta = target - self.x[rows]
        move = delta != 0.0
        rows, delta = rows[move], delta[move]
        if rows.size:
            self.trade(rows, delta, delta, delta, math.inf, two_point_weights(math.inf))


def _run_block(
    config: ExperimentConfig, state0: MarketState, seed: int, start: int, stop: int,
    policies: np.ndarray | None, per_policy: int, benchmark: float,
) -> np.ndarray:
    """Excess profits of replicas start..stop-1, as the scalar strategies compute them.

    ``policies`` is the _policy_table for adaptive_random. Raises _Failed for
    the first replica the batch finds failing, which need not be the lowest,
    and an error every replica raises before its first trade as it is.
    """
    strategy, spec, curve = config.strategy, config.privacy, config.curve
    kind = strategy.kind
    target = curve.x_of_price(config.true_price)
    rows = np.arange(stop - start)
    weights = spec.weights
    batch = _Batch(config, state0, seed, start, stop)
    if kind == "noise_chasing" and not spec.degenerate:
        half = 0.5 * spec.width  # PrivacySpec.recentered
        live = rows
        for _ in range(strategy.max_rounds):
            if not live.size:
                break
            # a round over every replica of the block reads the reserves without a gather
            delta = target - (batch.x if live.size == rows.size else batch.x[live])
            ok, eta = batch.trade(live, delta, delta - half, delta + half, spec.epsilon, weights)
            live = live[ok][eta != 0.0]  # a rejected trade or a zero draw ends the chase
    elif kind in ("case1", "case2"):
        if kind == "case1":
            check_case1(config.true_price, state0.spot)
        else:
            check_case2(config.true_price, strategy.detour_price, state0.spot)
            batch.trade_to(rows, curve.x_of_price(strategy.detour_price))
        size = np.full(rows.size, strategy.trade_size, dtype=float)
        batch.trade(
            rows, size, np.full(rows.size, spec.lower), np.full(rows.size, spec.upper),
            spec.epsilon, weights,
        )
    elif kind == "adaptive_random":
        aggression, offset, width, epsilon, period, t, rest = policies[
            (start + rows) // per_policy
        ].T
        columns = aggression, offset, 0.5 * width, width > 0.0, epsilon, period, t, rest
        live = rows
        # every live replica has made k trades, the count the private cadence reads
        for k in range(strategy.bound):
            if not live.size:
                break
            # a round over every replica of the block reads its columns without a gather
            whole = live.size == rows.size
            aggression, offset, half, wide, epsilon, period, t, rest = (
                columns if whole else (c[live] for c in columns)
            )
            x = batch.x if whole else batch.x[live]
            delta = aggression * (target - x) + offset
            cap = 0.25 * x
            # min(max(delta, -cap), cap): numpy's maximum and minimum return their
            # second argument on a tie and NaN from either, so delta's own bits
            # survive every tie, a signed zero included
            delta = np.minimum(cap, np.maximum(-cap, delta))
            private = (k % period == 0) & wide
            ok, _ = batch.trade(
                live, delta, np.where(private, delta - half, delta),
                np.where(private, delta + half, delta), np.where(private, epsilon, math.inf),
                (t, rest),
            )
            live = live[ok]
    elif kind not in ("truthful", "noise_chasing"):
        raise ConfigError(f"unknown strategy kind {kind!r}")
    if kind != "adaptive_random":
        batch.trade_to(rows, target)
    # _Runner.finish's total; its terminal spot read cannot fail inside the curve's domain
    return batch.y_out - batch.fees + batch.cash - benchmark


def estimate_excess_profit(
    config: ExperimentConfig, *, keep_samples: bool = False
) -> ExcessProfitResult:
    """Monte Carlo estimate of a strategy's profit over the truthful benchmark.

    The benchmark is deterministic and computed once. For adaptive_random the
    replica budget is split evenly over the random policies and the confidence
    interval pools all samples. Replica i runs policy i // per_policy on
    stream i, whatever the strategy. The replicas run batched; every sample, and
    the first error, is what the scalar strategy gives on replica_rng(seed, i).
    """
    seed = config.require_seed()
    state0 = config.initial_state()
    benchmark = truthful_strategy(state0, config.true_price).total_profit

    kind = config.strategy.kind
    if kind == "adaptive_random":
        n_policies = config.strategy.policies
        per_policy = max(1, config.replicas // n_policies)
        policies = _policy_table(seed, n_policies, config.privacy)
    else:
        n_policies, per_policy, policies = 1, config.replicas, None
    samples = np.empty(n_policies * per_policy)
    for start in range(0, samples.size, _BLOCK):
        stop, error = min(start + _BLOCK, samples.size), None
        # A replica below a failed one may fail in a later round: rerun the
        # replicas below it until none fails, and raise the last error met.
        while stop > start:
            try:
                with np.errstate(all="ignore"):
                    samples[start:stop] = _run_block(
                        config, state0, seed, start, stop, policies, per_policy, benchmark
                    )
                break
            except _Failed as failed:
                stop, error = failed.args
        if error is not None:
            raise error
    mean, se, ci = _summarize(samples)
    per_policy_means = None
    if kind == "adaptive_random":
        per_policy_means = tuple(samples.reshape(n_policies, per_policy).mean(axis=1).tolist())
    return ExcessProfitResult(
        kind, config.fee_policy.kind.value, mean, se, ci, samples.size, benchmark,
        per_policy_means,
        tuple(samples.tolist()) if keep_samples else None,
    )


def check_expectation(result: ExcessProfitResult, expect: str | None) -> bool | None:
    """Evaluate a configured CI expectation; None means nothing was expected."""
    if expect is None:
        return None
    if expect not in _EXPECTATION_TESTS:
        raise ConfigError(f"unknown expectation {expect!r}")
    return _EXPECTATION_TESTS[expect](*result.ci99)


# -- witness scan for the two deviation cases ----------------------------------


def factor2_grid() -> tuple[float, ...]:
    """The witness scan's price grid: factor-of-two steps over [1e-6, 1e6]."""
    out = []
    v = 1e-6
    while v <= 1e6 * (1.0 + 1e-12):
        out.append(v)
        v *= 2.0
    return tuple(out)


@dataclass(frozen=True, slots=True)
class WitnessCandidate:
    true_price: float
    detour_price: float | None
    expected_excess: float | None
    supported: bool
    note: str


@dataclass(frozen=True, slots=True)
class WitnessScanResult:
    case: str
    mu: float
    found: bool
    true_price: float | None
    detour_price: float | None
    mean_excess: float | None
    std_error: float | None
    ci99: tuple[float, float] | None
    replicas: int
    candidates: tuple[WitnessCandidate, ...]


def _deviation_moments(
    curve: TradingCurve,
    pre_trade_x: float,
    trade_size: float,
    dist: NoiseDistribution,
    charged_fee: float,
    true_price: float,
) -> tuple[float, float]:
    """Exact mean and standard deviation of a single-noisy-step excess.

    Both private-then-correct deviations have excess  -fee + I(eta)  with
    I(eta) = Y(s+eta) - Y(s) + eta*p_hat at post-trade reserves s; the
    deterministic legs cancel against the benchmark. Evaluating the atoms
    exactly lets the scan pick candidates the Monte Carlo pass will confirm.
    """
    s = pre_trade_x + trade_size
    p_s = curve.spot_price(s)
    gain = curve.reversal_gains(s)
    mean = 0.0
    second = 0.0
    for atom in dist.atoms:
        # split off the curve-exact part so nothing cancels when p_hat ~ P(s)
        step = gain(atom.eta) + atom.eta * (true_price - p_s)
        mean += atom.p * step
        second += atom.p * step * step
    variance = max(0.0, second - mean * mean)
    return mean - charged_fee, math.sqrt(variance)


def reproduce_deviation_theorem(
    case: str, mu: float, config: ExperimentConfig
) -> WitnessScanResult:
    """Scan for a true-price configuration where biased noise beats honesty.

    case "positive_mean" (mu > 0): private trade then correction, scanning
    true prices above the spot. case "negative_mean" (mu < 0): detour high,
    private trade there, correct down to a true price below both the spot and
    1/|mu|, scanning detour prices upward. Candidates are screened with exact
    atom arithmetic and the first one whose predicted CI clears zero with
    margin is confirmed by Monte Carlo; an empty result reports the scan
    evidence instead of raising. With mu = 0 and the quoted fee charged, no
    candidate screens positive, which is the control the truthfulness theorem
    predicts.

    Only config.strategy.trade_size is used: the confirmation runs the two
    deviation strategies through estimate_excess_profit.
    """
    if case not in ("positive_mean", "negative_mean"):
        raise ConfigError(f"case must be 'positive_mean' or 'negative_mean', got {case!r}")
    if case == "positive_mean" and mu < 0:
        raise ConfigError(f"positive_mean scan needs mu >= 0, got {mu}")
    if case == "negative_mean" and mu > 0:
        raise ConfigError(f"negative_mean scan needs mu <= 0, got {mu}")
    config.require_seed()  # fail before scanning, not at confirmation
    curve = config.curve
    trade_size = config.strategy.trade_size
    dist = biased_binary(trade_size, config.privacy, mu)
    state0 = config.initial_state()
    grid = factor2_grid()
    margin = 2.0  # require the predicted CI to clear zero by this factor

    def screen(p_hat: float, detour: float | None) -> WitnessCandidate:
        """Exact moments of one candidate, or the reason it cannot run."""
        try:
            state = state0 if detour is None else replace(state0, x=curve.x_of_price(detour))
            fee = trade_fee(state, trade_size, dist, config.fee_policy)
            expected, sd = _deviation_moments(curve, state.x, trade_size, dist, fee, p_hat)
            if detour is None:
                curve.x_of_price(p_hat)  # the correction leg must stay on the curve too
        except DomainError:
            return WitnessCandidate(p_hat, detour, None, False, "out of domain")
        except HiddenAccountError:
            return WitnessCandidate(p_hat, detour, None, False, "hidden account cannot support")
        ok = expected > margin * Z99 * sd / math.sqrt(config.replicas)
        return WitnessCandidate(p_hat, detour, expected, True, "screened" if ok else "margin")

    if case == "positive_mean":
        trials = [(p_hat, None) for p_hat in grid if p_hat > state0.spot]
    else:  # the largest admissible true price, detours scanned upward
        bound = min(state0.spot, math.inf if mu == 0.0 else 1.0 / abs(mu))
        p_hats = [g for g in grid if g < bound]
        trials = [(p_hats[-1], d) for d in grid if d > state0.spot] if p_hats else []
    candidates: list[WitnessCandidate] = []
    for p_hat, detour in trials:
        candidates.append(screen(p_hat, detour))
        if candidates[-1].note == "screened":
            break
    else:
        return WitnessScanResult(
            case, mu, False, None, None, None, None, None, config.replicas, tuple(candidates)
        )
    if detour is None:  # the loop stopped at the screened candidate
        strategy = StrategyConfig("case1", trade_size=trade_size)
    else:
        strategy = StrategyConfig("case2", trade_size=trade_size, detour_price=detour)
    confirmed = estimate_excess_profit(replace(
        config, true_price=p_hat, strategy=strategy, noise=NoiseConfig("biased_binary", mu),
    ))
    return WitnessScanResult(
        case, mu, confirmed.ci99[0] > 0.0, p_hat, detour, confirmed.mean,
        confirmed.std_error, confirmed.ci99, config.replicas, tuple(candidates),
    )


# -- cheapest-noise linear program ----------------------------------------------


@dataclass(frozen=True, slots=True)
class LPNoiseProblem:
    """Find per-input noise distributions on a shared output grid.

    Inputs are the trades to be masked (a grid over the masking interval);
    outputs are candidate post-noise positions shared by every input, which
    is exactly what makes the likelihood-ratio constraints expressible. The
    objective is the average noise fee over inputs, priced at one reference
    reserve; distributions must be row-stochastic, zero-mean per input, and
    within a factor exp(epsilon) of each other output-by-output.
    """

    curve: TradingCurve
    reference_x: float
    spec: PrivacySpec
    input_grid: tuple[float, ...]
    output_grid: tuple[float, ...]

    @classmethod
    def build(
        cls,
        curve: TradingCurve,
        reference_x: float,
        spec: PrivacySpec,
        n_inputs: int = 21,
        n_outputs: int = 41,
    ) -> "LPNoiseProblem":
        """Uniform input grid over the masking interval; output grid spanning
        the two-point mechanism's landmarks (so that mechanism stays feasible)."""
        _check_count("config", "n_inputs", n_inputs)
        _check_count("config", "n_outputs", n_outputs)
        if spec.degenerate:
            inputs = outputs = (spec.lower,)
        else:
            inputs = tuple(np.linspace(spec.lower, spec.upper, n_inputs).tolist())
            # the noise of a zero trade lands on the landmarks themselves
            lo, hi, _, _ = two_point(0.0, spec.lower, spec.upper, spec.weights)
            outputs = tuple(np.linspace(lo, hi, n_outputs).tolist())
        return cls(curve, reference_x, spec, inputs, outputs)

    def validate(self) -> None:
        lo, hi = min(self.output_grid), max(self.output_grid)
        for v in self.input_grid:
            if not (lo <= v <= hi):
                raise OptimizationError(
                    f"zero-mean constraint infeasible: input {v} outside the output "
                    f"grid span [{lo}, {hi}]"
                )
        for v in self.input_grid:
            if not self.spec.contains(v):
                raise OptimizationError(
                    f"input {v} outside the masking interval "
                    f"[{self.spec.lower}, {self.spec.upper}]"
                )
        for o in self.output_grid:
            if not self.curve.contains(self.reference_x + o):
                raise OptimizationError(
                    f"output {o} puts the reserve {self.reference_x + o} outside the curve domain"
                )


@dataclass(frozen=True, slots=True)
class NoiseLPSolution:
    problem: LPNoiseProblem
    distributions: tuple[NoiseDistribution, ...]
    per_input_fees: tuple[float, ...]
    average_fee: float
    outputs_used: tuple[float, ...]
    status: str

    def fee_at(self, delta: float) -> float:
        """Fee of the designed noise at the input grid point nearest delta (the first of a
        tie); delta must lie in the masking interval the design masks."""
        spec = self.problem.spec
        if not spec.contains(delta):
            raise SpecViolationError(
                f"trade {delta} outside masking interval [{spec.lower}, {spec.upper}]"
            )
        grid = self.problem.input_grid
        return self.per_input_fees[min(range(len(grid)), key=lambda k: abs(grid[k] - delta))]

    def _json_shape(self) -> dict:
        """The fields, with the problem's grids, reference and spec in place of the problem."""
        p = self.problem
        return {
            **fields_of(self, "problem"), "input_grid": p.input_grid,
            "output_grid": p.output_grid, "reference_x": p.reference_x, "privacy": p.spec,
        }


def _fee_cost_matrix(problem: LPNoiseProblem) -> np.ndarray:
    curve, x_ref = problem.curve, problem.reference_x
    m, n = len(problem.input_grid), len(problem.output_grid)
    cost = np.empty((m, n))
    for i, v in enumerate(problem.input_grid):
        gain = curve.reversal_gains(x_ref + v)
        cost[i] = [gain(o - v) for o in problem.output_grid]
    return cost


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call.

    Only the noise LP needs scipy, so importing noisycfmm does not load it.
    optimize_noise_lp looks this name up when it runs, so a wrapper set on the
    module attribute sees every solve.
    """
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


# Slack of validate_lp_solution on the ratio bound, and on the zero means in
# units of _mean_scale.
_CHECK_TOL = 1e-8


def _mean_scale(spec: PrivacySpec) -> float:
    """The unit of a design's means: the masking interval's width, up to 1.

    The noise of a narrow interval is of the interval's size, so its LP mean
    rows and its zero-mean slack are measured in widths. From width 1 on the
    unit is 1, which keeps those rows and that slack as they are.
    """
    return min(spec.width, 1.0) if spec.width > 0.0 else 1.0


def optimize_noise_lp(problem: LPNoiseProblem) -> NoiseLPSolution:
    """Solve the cheapest-noise linear program.

    Variables are the m*n output probabilities p(o|v) (inputs major, outputs
    minor), then one envelope u_o per output. The ratio constraint
    max_v p(o|v) <= e^eps * min_v p(o|v) becomes the 2*m*n rows
    e^-eps * u_o <= p(o|v) <= u_o. Columns whose mass is everywhere below
    1e-10 are dropped from the solution and rows renormalized; the ratio
    constraints force any used output to be used by every input, so this
    cannot orphan anyone. Raises OptimizationError when the solver fails or
    when the design fails validate_lp_solution, naming the failed check.
    """
    from scipy import sparse

    problem.validate()
    vins = np.array(problem.input_grid)
    outs = np.array(problem.output_grid)
    m, n = len(vins), len(outs)
    cost = _fee_cost_matrix(problem)

    # equalities: each row sums to one, each row's mean output is its input,
    # the mean rows in units of _mean_scale
    a_eq = sparse.vstack([
        sparse.kron(sparse.identity(m), np.ones((1, n))),
        sparse.block_diag(((outs - vins[:, None]) / _mean_scale(problem.spec))[:, None, :]),
    ], format="csc")
    b_eq = np.concatenate([np.ones(m), np.zeros(m)])
    objective = (cost / m).ravel()

    # inequalities: p(o|v) <= u_o and e^-eps * u_o <= p(o|v), the two rows of
    # each probability side by side: in that order HiGHS solves more designs
    # at eps > 8 than with all upper rows first
    a_ub = b_ub = None
    if m > 1:
        a_ub = sparse.hstack([
            sparse.kron(sparse.identity(m * n), [[1.0], [-1.0]]),
            sparse.kron(np.ones((m, 1)), sparse.kron(
                sparse.identity(n), [[-1.0], [math.exp(-problem.spec.epsilon)]]
            )),
        ], format="csc")
        b_ub = np.zeros(2 * m * n)
        a_eq = sparse.hstack([a_eq, sparse.csc_matrix((2 * m, n))], format="csc")
        objective = np.concatenate([objective, np.zeros(n)])

    res = linprog(
        objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(0.0, None), method="highs",
    )
    if not res.success:
        raise OptimizationError(f"noise design LP failed: {res.message}")
    solution = _design(problem, cost, res.x[: m * n], str(res.message))
    check = validate_lp_solution(solution)
    if not check.ok:
        failed = []
        if check.max_zero_mean_violation > _CHECK_TOL * _mean_scale(problem.spec):
            failed.append(f"zero-mean violation {check.max_zero_mean_violation!r}")
        if not check.pldp.satisfied:
            failed.append(f"ratio {check.pldp.max_ratio!r} above e^eps = {check.pldp.bound!r}")
        raise OptimizationError(f"designed noise fails its check: {', '.join(failed)}")
    return solution


def _design(
    problem: LPNoiseProblem, cost: np.ndarray, x: np.ndarray, status: str
) -> NoiseLPSolution:
    """The noise design that the solved probabilities x (m*n, inputs major) describe."""
    vins = np.array(problem.input_grid)
    outs = np.array(problem.output_grid)
    q = np.maximum(x.reshape(len(vins), len(outs)), 0.0)
    keep = q.max(axis=0) > 1e-10
    q = q[:, keep]
    kept_outputs = outs[keep]
    row_sums = q.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-8):
        raise OptimizationError(
            f"solution rows sum to {row_sums.min()}..{row_sums.max()}, outside tolerance"
        )
    q = q / row_sums[:, None]

    kept_cost = cost[:, keep]
    fees = tuple(float(f) for f in (q * kept_cost).sum(axis=1))
    dists = tuple(
        NoiseDistribution(
            tuple(NoiseAtom(float(o - v), float(p)) for o, p in zip(kept_outputs, q[i]))
        )
        for i, v in enumerate(vins)
    )
    return NoiseLPSolution(
        problem=problem,
        distributions=dists,
        per_input_fees=fees,
        average_fee=float(np.mean(fees)),
        outputs_used=tuple(float(o) for o in kept_outputs),
        status=status,
    )


@dataclass(frozen=True, slots=True)
class NoiseSolutionCheck:
    max_zero_mean_violation: float
    pldp: PLDPReport
    ok: bool

    def _json_shape(self) -> dict:
        return {
            "max_zero_mean_violation": self.max_zero_mean_violation,
            "max_ratio": self.pldp.max_ratio,
            "ratio_bound": self.pldp.bound,
            "pldp_satisfied": self.pldp.satisfied,
            "ok": self.ok,
        }


def validate_lp_solution(solution: NoiseLPSolution) -> NoiseSolutionCheck:
    """Independent re-check of a designed mechanism: zero means and the
    likelihood-ratio guarantee on the design's own inputs and distributions.
    The means may miss zero by _CHECK_TOL times the masking interval's width,
    or times 1 from width 1 on."""
    worst_mean = max(abs(d.mean()) for d in solution.distributions)
    problem = solution.problem
    report = pldp_report(problem.spec, problem.input_grid, solution.distributions, _CHECK_TOL)
    ok = report.satisfied and worst_mean <= _CHECK_TOL * _mean_scale(problem.spec)
    return NoiseSolutionCheck(worst_mean, report, ok)
