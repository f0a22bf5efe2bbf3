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
gives on its arrays, the lowest such replica first.

replica_rng defines the noise streams, one numpy Generator at a time;
random policy j draws its parameters from numpy's Generator on
SeedSequence(seed, spawn_key=(1, j)), as replica i does on spawn key (0, i).
The batched engine computes the same streams as arrays over all replicas of
a block (_stream_keys, _philox): uniform c of replica i is lane c % 4 of its
Philox block c // 4 + 1, bit for bit what replica_rng(seed, i).random()
returns as its c-th draw. Each replica holds a chunk of up to _CHUNK of the
blocks it can draw, and one _philox call refills every replica that has used
its chunk up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .codec import choice, fields_of, integer, number, optional, parse_fields, parse_kind
from .curve import Family, TradingCurve, parse_curve
from .errors import (
    ConfigError, DomainError, HiddenAccountError, NoisyCfmmError, OptimizationError,
)
from .fee import (  # the scaling study lives in fee; harness still hands it out
    ScalingRow,
    ScalingStudyResult,
    liquidity_scaling_study,
    noise_fee,
)
from .market import FeePolicy, FeePolicyKind, MarketState, execute_trade, support_check
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
    two_point,
    two_point_weights,
    verify_pldp,
)
from .strategies import DEFAULT_MAX_ROUNDS, check_case1, check_case2, truthful_strategy
from .streams import INIT_A, INIT_B, MIX_L, MIX_R, MULT_A, MULT_B, PHILOX_M, PHILOX_W

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


# -- the same streams as arrays -------------------------------------------------
#
# Both steps of replica_rng are fixed integer arithmetic: SeedSequence hashes
# the entropy words into a pool of four uint32 and hashes the pool into the
# Philox key; Philox4x64-10 maps (key, counter) to four uint64 lanes
# (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11). The
# functions below run them on arrays of stream indices, word for word as
# numpy does; streams runs them on plain ints for one stream and holds the
# constants.

_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_MIX_L, _MIX_R = np.uint32(MIX_L), np.uint32(MIX_R)
_PHILOX_M = np.array(PHILOX_M, dtype=np.uint64)[:, None]
_PHILOX_W = np.array(PHILOX_W, dtype=np.uint64)[:, None]


def _hash4(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of four words in turn, starting at hash constant const.

    words broadcasts to (4, n) uint32. Returns the four hashes and the
    constant the next hashmix starts from.
    """
    consts = [const]
    for _ in range(4):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    c = np.array(consts, dtype=np.uint32)[:, None]
    h = (words ^ c[:4]) * c[1:]
    return h ^ h >> np.uint32(16), consts[-1]


def _absorb(pool: np.ndarray, const: int, word: np.ndarray) -> tuple[np.ndarray, int]:
    """Mix one more entropy word (one per column) into each of the four pool words."""
    h, const = _hash4(word, const, MULT_A)
    mixed = _MIX_L * pool - _MIX_R * h
    return mixed ^ mixed >> np.uint32(16), const


def _stream_keys(seed: int, k: int, index: np.ndarray) -> np.ndarray:
    """Philox keys of SeedSequence(seed, spawn_key=(k, i)) for each i in index, shape (2, n).

    The run entropy and k are the same for every stream, so numpy's own
    SeedSequence(seed, spawn_key=(k,)) gives the pool after them, and raises
    numpy's error for a seed it refuses. Only the one or two words of each
    index (two from 2**32 on) are hashed here.
    """
    prefix = np.random.SeedSequence(seed, spawn_key=(k,))
    # The hash constant advances once per hashmix: 4 fill the pool, 12
    # cross-mix it, and 4 more for each entropy word past the pool's 4 (the
    # seed's words beyond 4, as it is padded to 4, then k).
    seed_words = -(-int(seed).bit_length() // 32)
    const = INIT_A * pow(MULT_A, 16 + 4 * (max(seed_words, 4) - 3), 2**32) & 0xFFFFFFFF
    pool = np.repeat(prefix.pool[:, None], index.size, axis=1)
    pool, const = _absorb(pool, const, (index & _LOW32).astype(np.uint32))
    wide = np.flatnonzero(index >> _SHIFT32)
    if wide.size:
        high = (index[wide] >> _SHIFT32).astype(np.uint32)
        pool[:, wide], _ = _absorb(pool[:, wide], const, high)
    state = _hash4(pool, INIT_B, MULT_B)[0].astype(np.uint64)
    return state[0::2] | state[1::2] << _SHIFT32  # generate_state(2, uint64)


def _philox(key: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """Philox4x64-10 block at counter (counter, 0, 0, 0) of each key column; shape (4, n).

    numpy's Philox starts from counter 0 and increments before each block,
    so its b-th block of four outputs is the one at counter b. The 128-bit
    products are assembled from 32-bit halves. Every operand is a full (2, n)
    array: numpy takes about twice as long to broadcast a (2, 1) one.
    """
    n = key.shape[1]
    low, shift = (np.full((2, n), v, dtype=np.uint64) for v in (0xFFFFFFFF, 32))
    m, w = (np.repeat(c, n, axis=1) for c in (_PHILOX_M, _PHILOX_W))
    m_lo, m_hi = m & low, m >> shift
    x = np.zeros((2, n), dtype=np.uint64)  # counter words 0 and 2
    x[0] = counter
    y = np.zeros_like(x)  # counter words 1 and 3
    for r in range(10):
        if r:
            key = key + w
        x_lo, x_hi = x & low, x >> shift
        t = m_hi * x_lo + (m_lo * x_lo >> shift)
        u = m_lo * x_hi + (t & low)
        hi = m_hi * x_hi + (t >> shift) + (u >> shift)
        x, y = hi[::-1] ^ y ^ key, (m * x)[::-1]
    return np.stack([x[0], y[0], x[1], y[1]])


def _unit(words: np.ndarray) -> np.ndarray:
    """Generator.random() of each 64-bit output: its top 53 bits over 2**53."""
    return (words >> np.uint64(11)) * 2.0**-53


def _lemire_rejects(word: np.ndarray, span: int) -> np.ndarray:
    """Where numpy's 32-bit Lemire draw from [0, span) refuses word and draws again."""
    return (word * np.uint64(span) & _LOW32) < (2**32 - span) % span


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
        word = lanes[k // 2 % 4] >> np.uint64(32 * (k % 2)) & _LOW32
        refused = _lemire_rejects(word, span)
        value[rows[~refused]] = word[~refused] * np.uint64(span) >> _SHIFT32
        rows, lanes = rows[refused], lanes[:, refused]
        k += 1
    return value


# -- strict config parsing ----------------------------------------------------

_FEE_POLICIES = {
    "noise_fee": {}, "zero": {}, "fixed": {"value": number}, "scaled": {"multiplier": number},
}


def parse_fee_policy(obj: dict, where: str = "fee_policy") -> FeePolicy:
    fields = parse_kind(obj, "policy", _FEE_POLICIES, ("value", "multiplier"), where)
    return FeePolicy(FeePolicyKind(fields.pop("policy")), *fields.values())


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
    """Mean, standard error and 99% CI; one that overflows raises DomainError."""
    with np.errstate(all="ignore"):  # reported below, not warned about
        mean = float(np.mean(samples))
        se = float(np.std(samples, ddof=1)) / math.sqrt(samples.size) if samples.size > 1 else 0.0
    ci = (mean - Z99 * se, mean + Z99 * se) if samples.size > 1 else (mean, mean)
    for name, value in zip(("mean", "standard error", "CI end", "CI end"), (mean, se, *ci)):
        if not math.isfinite(value):
            raise DomainError(f"excess-profit {name} {value} is not finite")
    return mean, se, ci


# A random policy draws, in this order, uniforms for its aggression, offset,
# width factor and epsilon factor, then its private period from integers().
_POLICY_UNIFORMS = ((0.2, 1.2), (-0.4, 0.4), (0.5, 2.0), (0.5, 2.0))
_POLICY_PERIODS = (1, 4)


def _scale_policy(draws: Sequence, base_spec: PrivacySpec) -> tuple:
    """Aggression, offset, width and epsilon from a policy's four uniforms."""
    aggression, offset, width, epsilon = draws
    return (
        aggression, offset * max(base_spec.width, 1.0), base_spec.width * width,
        base_spec.epsilon * epsilon,
    )


def _policy_table(seed: int, n_policies: int, base_spec: PrivacySpec) -> np.ndarray:
    """Random policies 0..n_policies-1, one row each: aggression, offset, width,
    epsilon, private period and the two_point_weights of the epsilon.

    Policy j draws them from numpy's Generator on SeedSequence(seed, spawn_key=(1, j)):
    Generator.uniform's low + (high - low) * u on lanes 0-3 of Philox block 1,
    then integers(*_POLICY_PERIODS) from block 2 on. Blocks 1 and 2 of _BLOCK
    policies at a time come from one _philox call."""
    key = _stream_keys(seed, 1, np.arange(n_policies, dtype=np.uint64))
    first, stop = _POLICY_PERIODS
    uniforms, period = np.empty((4, n_policies)), np.empty(n_policies, dtype=np.uint64)
    for start in range(0, n_policies, _BLOCK):
        part = key[:, start:start + _BLOCK]
        n = part.shape[1]
        blocks = _philox(np.tile(part, 2), np.repeat(np.array([1, 2], dtype=np.uint64), n))
        uniforms[:, start:start + n] = _unit(blocks[:, :n])
        period[start:start + n] = first + _bounded(part, 2, stop - first, blocks[:, n:])
    draws = [low + (high - low) * u for (low, high), u in zip(_POLICY_UNIFORMS, uniforms)]
    params = _scale_policy(draws, base_spec)
    weights = [two_point_weights(epsilon) for epsilon in params[3].tolist()]
    return np.column_stack([*params, period, np.reshape(weights, (n_policies, 2))])


# -- the batched replica engine --------------------------------------------------

# Replicas run together in blocks of at most _BLOCK, and each replica holds
# at most _CHUNK Philox blocks (4 * _CHUNK uniforms) at a time, so memory
# stays bounded whatever the replica count and the number of rounds. A row
# computes its whole chunk even if its replica stops before drawing it, so
# _CHUNK stays at the largest chunk the benchmark times (an 8-round chase).
_BLOCK = 4096
_CHUNK = 2


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
    return tuple(curve.level * eta * eta / (s * s * (s + eta)) for eta in (lo, hi))


class _Batch:
    """Replicas start..stop-1 of one experiment, one array entry per replica.

    The arrays hold what the scalar engine keeps per replica: MarketState's
    visible reserve and hidden account, and the running sums of y_out, fee
    and external cash that _Runner.finish totals. Replica i takes its
    uniforms from the stream replica_rng(seed, i) defines, one per noisy
    trade, as NoiseDistribution.sample does.
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
        self.hidden_x = np.full(n, state0.hidden_x, dtype=float)
        self.hidden_y = np.full(n, state0.hidden_y, dtype=float)
        self.y_out = np.zeros(n)
        self.fees = np.zeros(n)
        self.cash = np.zeros(n)
        self.key = _stream_keys(seed, 0, np.arange(start, stop, dtype=np.uint64))
        # the uniforms a replica can draw: one per round, at most one for case1 and case2
        strategy = config.strategy
        bound = {"noise_chasing": strategy.max_rounds, "adaptive_random": strategy.bound}
        chunk = min(max(1, -(-bound.get(strategy.kind, 1) // 4)), _CHUNK)
        self.lanes = np.empty((n, 4 * chunk))  # each row's next chunk of Philox blocks
        self.used = np.zeros(n, dtype=np.uint64)  # uniforms each row has drawn

    def _draw(self, rows: np.ndarray) -> np.ndarray:
        """The next uniform of each replica in rows.

        Uniform c of a row is lane c % 4 of its block c // 4 + 1. A row holds
        a chunk of consecutive blocks; the rows that have used theirs up get
        the next chunk, all of them from one _philox call.
        """
        used = self.used[rows]
        width = self.lanes.shape[1]
        at = used % width
        fresh = rows[at == 0]
        if fresh.size:
            chunk = width // 4
            counter = self.used[fresh] // 4 + 1 + np.arange(chunk, dtype=np.uint64)[:, None]
            blocks = _unit(_philox(np.tile(self.key[:, fresh], chunk), counter.ravel()))
            self.lanes[fresh] = blocks.reshape(4, chunk, fresh.size).T.reshape(fresh.size, width)
        self.used[rows] = used + 1
        return self.lanes[rows, at]

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
        """
        curve = self.curve
        x = self.x[rows]
        # the PrivacySpec, execute_trade's and binary_mechanism's checks; a trade
        # in [lower, upper] has lower <= upper
        bad = ~(np.isfinite(lower) & np.isfinite(upper) & (epsilon > 0.0) & (lower <= delta)
                & (delta <= upper))
        noisy = (lower != upper) & ~np.isinf(epsilon)  # a degenerate spec gets the zero atom
        # noise_fee: the post-trade and noised reserves stay on the curve
        s = x + delta
        low = high = s
        quiet = not noisy.any()  # then no row has noise to quote, support or draw
        if not quiet:
            lo, hi, p_lo, p_hi = two_point(delta, lower, upper, weights)
            # NoiseDistribution refuses only non-finite atoms here: for a trade in
            # its interval each probability is in [0, 1] and they sum to 1, up to ulps
            bad |= noisy & ((epsilon < EPSILON_FLOOR) | ~(np.isfinite(lo) & np.isfinite(hi)))
            if self.mu is not None:  # biased_binary: the same atoms with mean mu
                # coincident atoms, which biased_binary refuses, leave p_hi non-finite
                p_lo, p_hi = mean_tilt(lo, hi, self.mu)
                bad |= noisy & ~((0.0 <= p_hi) & (p_hi <= 1.0))
            # the rows with a degenerate spec get the zero atom
            lo, hi = np.where(noisy, lo, 0.0), np.where(noisy, hi, 0.0)
            s_lo, s_hi = s + lo, s + hi
            # a NaN anywhere stays NaN and fails both tests below
            low = np.minimum(np.minimum(s, s_lo), s_hi)
            high = np.maximum(np.maximum(s, s_lo), s_hi)
        bad |= ~((curve.x_lo <= low) & (high <= curve.x_hi))
        trade = rows, delta, lower, upper, epsilon
        if bad.any():
            raise self._failure(bad, trade)
        hidden_x, hidden_y = self.hidden_x[rows], self.hidden_y[rows]
        ok, fee, eta = np.ones(rows.size, dtype=bool), 0.0, np.zeros(rows.size)
        try:  # LMSR goes through the scalar curve queries, which raise as execute_trade's do
            y_s = _y_of_x(curve, s)
            if not quiet:
                gain_lo, gain_hi = _reversal_gains(curve, s, lo, hi)
                quote = (
                    0.0 + np.where(lo == 0.0, 0.0, p_lo * gain_lo)
                    + np.where(hi == 0.0, 0.0, p_hi * gain_hi)
                )
                if not np.isfinite(quote).all():
                    raise self._failure(~np.isfinite(quote), trade)
                # support_check: can the hidden account fund every atom? The atoms
                # straddle zero (|center| <= half <= big), so only hi can need X and
                # only lo can need Y.
                ok = ~(
                    ((hi > 0.0) & (hidden_x < hi))
                    | ((lo < 0.0) & (hidden_y < _y_of_x(curve, s_lo) - y_s))
                )
                if not ok.all():
                    if self.rejection_fails:
                        raise self._failure(~ok, trade)
                    rows, x, delta, s, y_s, lo, hi, p_lo, noisy, quote, hidden_x, hidden_y = (
                        a[ok] for a in (
                            rows, x, delta, s, y_s, lo, hi, p_lo, noisy, quote, hidden_x,
                            hidden_y,
                        )
                    )
                fee = np.where(noisy, self.fee_policy.charge(quote), 0.0)
                eta = np.zeros(rows.size)
                draw = np.flatnonzero(noisy)
                if draw.size:  # unless the hidden account refused every noisy row
                    u = self._draw(rows[draw])
                    eta[draw] = np.where(u < p_lo[draw], lo[draw], hi[draw])
            post = s + eta
            y_post = _y_of_x(curve, post)
            y_pre = _y_of_x(curve, x)
        except NoisyCfmmError:
            raise self._failure(np.ones(trade[0].size, dtype=bool), trade) from None
        self.y_out[rows] += y_pre - y_s
        self.fees[rows] += fee
        self.cash[rows] += self.true_price * -delta
        self.x[rows] = post
        self.hidden_x[rows] = hidden_x - eta
        self.hidden_y[rows] = hidden_y + (y_s - y_post)
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
                    state, delta[k].item(), spec, np.random.default_rng(0),
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
    weights = two_point_weights(spec.epsilon)
    batch = _Batch(config, state0, seed, start, stop)
    if kind == "noise_chasing" and not spec.degenerate:
        half = 0.5 * spec.width  # PrivacySpec.recentered
        live = rows
        for _ in range(strategy.max_rounds):
            if not live.size:
                break
            delta = target - batch.x[live]
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
        live = rows
        # every live replica has made k trades, the count the private cadence reads
        for k in range(strategy.bound):
            if not live.size:
                break
            x = batch.x[live]
            delta = aggression[live] * (target - x) + offset[live]
            cap = 0.25 * x
            delta = np.where(-cap > delta, -cap, delta)  # min(max(delta, -cap), cap)
            delta = np.where(cap < delta, cap, delta)
            private = (k % period[live] == 0) & (width[live] > 0.0)
            half = 0.5 * width[live]
            ok, _ = batch.trade(
                live, delta, np.where(private, delta - half, delta),
                np.where(private, delta + half, delta),
                np.where(private, epsilon[live], math.inf), (t[live], rest[live]),
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
    spot = config.initial_state().spot
    grid = factor2_grid()
    margin = 2.0  # require the predicted CI to clear zero by this factor

    def screen(p_hat: float, detour: float | None) -> WitnessCandidate:
        """Exact moments of one candidate, or the reason it cannot run."""
        outside = WitnessCandidate(p_hat, detour, None, False, "out of domain")
        pre_x = config.initial_x
        if detour is not None:
            try:
                pre_x = curve.x_of_price(detour)
            except DomainError:
                return outside
            probe = MarketState(curve, pre_x, config.hidden_x, config.hidden_y)
            if not support_check(probe, trade_size, dist):
                return replace(outside, note="hidden account cannot support")
        try:
            fee = config.fee_policy.charge(noise_fee(curve, pre_x, trade_size, dist).gamma)
            expected, sd = _deviation_moments(curve, pre_x, trade_size, dist, fee, p_hat)
            if detour is None:
                curve.x_of_price(p_hat)  # the correction leg must stay on the curve too
        except DomainError:
            return outside
        ok = expected > margin * Z99 * sd / math.sqrt(config.replicas)
        return WitnessCandidate(p_hat, detour, expected, True, "screened" if ok else "margin")

    if case == "positive_mean":
        trials = [(p_hat, None) for p_hat in grid if p_hat > spot]
    else:  # the largest admissible true price, detours scanned upward
        bound = min(spot, math.inf if mu == 0.0 else 1.0 / abs(mu))
        p_hats = [g for g in grid if g < bound]
        trials = [(p_hats[-1], detour) for detour in grid if detour > spot] if p_hats else []
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
            lo, hi, _, _ = two_point(0.0, spec.lower, spec.upper, two_point_weights(spec.epsilon))
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

    def _nearest(self, delta: float) -> int:
        """Index of the input grid point nearest delta (the first of a tie)."""
        grid = self.problem.input_grid
        return min(range(len(grid)), key=lambda k: abs(grid[k] - delta))

    def fee_at(self, delta: float) -> float:
        """Fee of the designed noise for the input grid point nearest delta."""
        return self.per_input_fees[self._nearest(delta)]

    def mechanism(self) -> Callable[[float], NoiseDistribution]:
        """Adapter for verify_pldp: maps a grid input to its designed noise."""
        grid = self.problem.input_grid
        scale = max(1.0, max(abs(g) for g in grid))

        def lookup(v: float) -> NoiseDistribution:
            i = self._nearest(v)
            if abs(grid[i] - v) > 1e-9 * scale:
                raise ValueError(f"input {v} is not on the design grid")
            return self.distributions[i]

        return lookup

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


# Likelihood-ratio constraints above this epsilon are numerically vacuous
# (ratio > 5e21) and only poison the LP scaling, so they are dropped.
_RATIO_EPS_CAP = 50.0

# Slack of validate_lp_solution on the zero means and on the ratio bound.
_CHECK_TOL = 1e-8


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

    # equalities: each row sums to one, each row's mean output is its input
    a_eq = sparse.vstack([
        sparse.kron(sparse.identity(m), np.ones((1, n))),
        sparse.block_diag((outs - vins[:, None])[:, None, :]),
    ], format="csc")
    b_eq = np.concatenate([np.ones(m), np.zeros(m)])
    objective = (cost / m).ravel()

    # inequalities: p(o|v) <= u_o and e^-eps * u_o <= p(o|v), the two rows of
    # each probability side by side: in that order HiGHS solves more designs
    # at eps > 8 than with all upper rows first
    a_ub = b_ub = None
    if m > 1 and problem.spec.epsilon <= _RATIO_EPS_CAP:
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
        if check.max_zero_mean_violation > _CHECK_TOL:
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


def validate_lp_solution(
    solution: NoiseLPSolution, tol: float = _CHECK_TOL
) -> NoiseSolutionCheck:
    """Independent re-check of a designed mechanism: zero means and the
    likelihood-ratio guarantee over the design's own input grid."""
    worst_mean = max(abs(d.mean()) for d in solution.distributions)
    report = verify_pldp(
        solution.mechanism(),
        solution.problem.spec,
        grid_size=len(solution.problem.input_grid),
        ratio_slack=tol,
    )
    ok = report.satisfied and worst_mean <= tol
    return NoiseSolutionCheck(worst_mean, report, ok)
