"""Experiment harness: Monte Carlo estimators, witness scans, noise design.

Everything here is deterministic given a seed. Each replica draws its
randomness from a counter-based generator keyed by (seed, replica index), so
replica i sees the same noise stream no matter which fee policy or strategy
variant is being compared (common random numbers), results do not depend on
execution order, and reruns are bit-identical.

estimate_excess_profit runs the replicas of an experiment together, as numpy
arrays with one entry per replica, in blocks. Its reference is the scalar
engine: run_strategy_once over the strategy functions (truthful_strategy,
noise_chasing_strategy, case1_deviation, case2_deviation, run_adaptive),
replica by replica. The batched step evaluates the same float operations in
the same order, and transcendental curve queries through the same scalar
math calls, so every sample is bit-identical to that loop's. A block in which
some replica would raise in the scalar engine is rerun there, replica by
replica, so the caller gets the exception that loop raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .curve import Family, TradingCurve
from .errors import ConfigError, DomainError, NoisyCfmmError, OptimizationError
from .fee import noise_fee
from .market import FeePolicy, FeePolicyKind, MarketState, support_check
from .privacy import (
    EPSILON_FLOOR,
    PROBABILITY_TOL,
    NoiseAtom,
    NoiseDistribution,
    PLDPReport,
    PrivacySpec,
    biased_binary,
    biased_factory,
    binary_mechanism,
    verify_pldp,
)
from .strategies import (
    DEFAULT_MAX_ROUNDS,
    AdaptivePolicy,
    StrategyTrace,
    case1_deviation,
    case2_deviation,
    noise_chasing_strategy,
    run_adaptive,
    truthful_strategy,
)

# Two-sided 99% normal quantile; CIs here use the normal approximation.
Z99 = 2.5758293035489004

_CURVE_FAMILIES = {
    "constant_product": Family.CONSTANT_PRODUCT,
    "cp": Family.CONSTANT_PRODUCT,
    "lmsr": Family.LMSR,
    "constant_sum": Family.CONSTANT_SUM,
    "csum": Family.CONSTANT_SUM,
}

STRATEGY_KINDS = ("truthful", "noise_chasing", "case1", "case2", "adaptive_random")
EXPECTATIONS = (
    "ci_contains_zero",
    "ci_above_zero",
    "ci_below_zero",
    "ci_contains_or_below_zero",
)


def replica_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one replica, from a splittable counter-based generator."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0, index))))


def policy_rng(seed: int, index: int) -> np.random.Generator:
    """Substream that fixes one random policy's parameters (disjoint from replica streams)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(1, index))))


# -- strict config parsing ----------------------------------------------------


def strict_keys(obj: dict, allowed: Sequence[str], where: str) -> None:
    """Reject a non-object or any field outside ``allowed``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def parse_number(obj: dict, key: str, where: str, default: float | None = None) -> float:
    """Field ``key`` as a float; bools are refused, a missing key needs a default."""
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing required field '{key}' in {where}")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"field '{key}' in {where} must be a number, got {v!r}")
    return float(v)


def parse_integer(obj: dict, key: str, where: str, default: int | None = None) -> int:
    """Field ``key`` as an int; bools are refused, a missing key needs a default."""
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing required field '{key}' in {where}")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"field '{key}' in {where} must be an integer, got {v!r}")
    return v


def parse_curve(obj: dict) -> TradingCurve:
    strict_keys(obj, ("family", "level", "slope", "x_min", "x_max"), "curve")
    family_name = obj.get("family")
    if family_name not in _CURVE_FAMILIES:
        raise ConfigError(
            f"curve family must be one of {sorted(set(_CURVE_FAMILIES))}, got {family_name!r}"
        )
    kwargs = {}
    if "x_min" in obj:
        kwargs["x_min"] = parse_number(obj, "x_min", "curve")
    if "x_max" in obj:
        kwargs["x_max"] = parse_number(obj, "x_max", "curve")
    family = _CURVE_FAMILIES[family_name]
    level = parse_number(obj, "level", "curve")
    if family is Family.CONSTANT_SUM:
        return TradingCurve(family, level, slope=parse_number(obj, "slope", "curve"), **kwargs)
    if "slope" in obj:
        raise ConfigError("field 'slope' only applies to constant-sum curves")
    return TradingCurve(family, level, **kwargs)


def curve_to_json_obj(curve: TradingCurve) -> dict:
    obj: dict = {"family": curve.family.value, "level": curve.level}
    if curve.family is Family.CONSTANT_SUM:
        obj["slope"] = curve.slope
    obj["x_min"] = curve.x_min
    obj["x_max"] = curve.x_max
    return obj


def parse_privacy(obj: dict) -> PrivacySpec:
    strict_keys(obj, ("tau", "epsilon"), "privacy")
    tau = obj.get("tau")
    if not (isinstance(tau, list) and len(tau) == 2):
        raise ConfigError(f"privacy field 'tau' must be [lower, upper], got {tau!r}")
    lo, hi = tau
    for v in (lo, hi):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"tau bounds must be numbers, got {tau!r}")
    eps = obj.get("epsilon")
    if eps == "inf":
        eps = math.inf
    elif isinstance(eps, bool) or not isinstance(eps, (int, float)):
        raise ConfigError(f"privacy field 'epsilon' must be a number or \"inf\", got {eps!r}")
    return PrivacySpec(float(lo), float(hi), float(eps))


def parse_fee_policy(obj: dict) -> FeePolicy:
    strict_keys(obj, ("policy", "value", "multiplier"), "fee_policy")
    kind = obj.get("policy")
    if kind == "noise_fee":
        strict_keys(obj, ("policy",), "fee_policy")
        return FeePolicy.noise_fee()
    if kind == "zero":
        strict_keys(obj, ("policy",), "fee_policy")
        return FeePolicy.zero()
    if kind == "fixed":
        strict_keys(obj, ("policy", "value"), "fee_policy")
        return FeePolicy.fixed(parse_number(obj, "value", "fee_policy"))
    if kind == "scaled":
        strict_keys(obj, ("policy", "multiplier"), "fee_policy")
        return FeePolicy.scaled(parse_number(obj, "multiplier", "fee_policy"))
    raise ConfigError(
        f"fee policy must be one of ['noise_fee', 'zero', 'fixed', 'scaled'], got {kind!r}"
    )


@dataclass(frozen=True, slots=True)
class NoiseConfig:
    kind: str = "binary"  # "binary" | "biased_binary"
    mu: float = 0.0

    @classmethod
    def from_json_obj(cls, obj: dict) -> "NoiseConfig":
        strict_keys(obj, ("kind", "mu"), "noise")
        kind = obj.get("kind", "binary")
        if kind == "binary":
            strict_keys(obj, ("kind",), "noise")
            return cls("binary", 0.0)
        if kind == "biased_binary":
            return cls("biased_binary", parse_number(obj, "mu", "noise"))
        raise ConfigError(f"noise kind must be 'binary' or 'biased_binary', got {kind!r}")

    def to_json_obj(self) -> dict:
        if self.kind == "binary":
            return {"kind": "binary"}
        return {"kind": "biased_binary", "mu": self.mu}

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
        if self.policies < 1:
            raise ConfigError(f"strategy field 'policies' must be at least 1, got {self.policies}")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "StrategyConfig":
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind not in STRATEGY_KINDS:
            raise ConfigError(f"strategy kind must be one of {list(STRATEGY_KINDS)}, got {kind!r}")
        allowed_by_kind = {
            "truthful": ("kind",),
            "noise_chasing": ("kind", "max_rounds"),
            "case1": ("kind", "trade_size"),
            "case2": ("kind", "trade_size", "detour_price"),
            "adaptive_random": ("kind", "policies", "bound"),
        }
        strict_keys(obj, allowed_by_kind[kind], f"strategy({kind})")
        out = cls(
            kind=kind,
            max_rounds=parse_integer(obj, "max_rounds", "strategy", DEFAULT_MAX_ROUNDS),
            trade_size=parse_number(obj, "trade_size", "strategy", 1.0),
            detour_price=(
                parse_number(obj, "detour_price", "strategy") if "detour_price" in obj else None
            ),
            policies=parse_integer(obj, "policies", "strategy", 100),
            bound=parse_integer(obj, "bound", "strategy", 8),
        )
        if kind == "case2" and out.detour_price is None:
            raise ConfigError("strategy case2 requires 'detour_price'")
        return out

    def to_json_obj(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.kind == "noise_chasing":
            obj["max_rounds"] = self.max_rounds
        elif self.kind == "case1":
            obj["trade_size"] = self.trade_size
        elif self.kind == "case2":
            obj["trade_size"] = self.trade_size
            obj["detour_price"] = self.detour_price
        elif self.kind == "adaptive_random":
            obj["policies"] = self.policies
            obj["bound"] = self.bound
        return obj


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

    _ALLOWED = (
        "curve", "initial_x", "true_price", "privacy", "strategy", "fee_policy",
        "noise", "replicas", "seed", "hidden_x", "hidden_y", "expect",
    )

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigError(f"config field 'replicas' must be at least 1, got {self.replicas}")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentConfig":
        strict_keys(obj, cls._ALLOWED, "config")
        for req in ("curve", "initial_x", "true_price", "privacy", "strategy"):
            if req not in obj:
                raise ConfigError(f"missing required field '{req}' in config")
        seed = obj.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ConfigError(f"field 'seed' must be an integer, got {seed!r}")
        expect = obj.get("expect")
        if expect is not None and expect not in EXPECTATIONS:
            raise ConfigError(f"field 'expect' must be one of {list(EXPECTATIONS)}, got {expect!r}")
        return cls(
            curve=parse_curve(obj["curve"]),
            initial_x=parse_number(obj, "initial_x", "config"),
            true_price=parse_number(obj, "true_price", "config"),
            privacy=parse_privacy(obj["privacy"]),
            strategy=StrategyConfig.from_json_obj(obj["strategy"]),
            fee_policy=parse_fee_policy(obj["fee_policy"]) if "fee_policy" in obj else FeePolicy.noise_fee(),
            noise=NoiseConfig.from_json_obj(obj["noise"]) if "noise" in obj else NoiseConfig(),
            replicas=parse_integer(obj, "replicas", "config", 10000),
            seed=seed,
            hidden_x=parse_number(obj, "hidden_x", "config", 1e9),
            hidden_y=parse_number(obj, "hidden_y", "config", 1e9),
            expect=expect,
        )

    def to_json_obj(self) -> dict:
        return {
            "curve": curve_to_json_obj(self.curve),
            "initial_x": self.initial_x,
            "true_price": self.true_price,
            "privacy": self.privacy.to_json_obj(),
            "strategy": self.strategy.to_json_obj(),
            "fee_policy": self.fee_policy.to_json_obj(),
            "noise": self.noise.to_json_obj(),
            "replicas": self.replicas,
            "seed": self.seed,
            "hidden_x": self.hidden_x,
            "hidden_y": self.hidden_y,
            "expect": self.expect,
        }

    def initial_state(self) -> MarketState:
        return MarketState(self.curve, self.initial_x, self.hidden_x, self.hidden_y)

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("randomized experiment requires an explicit seed")
        return self.seed


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

    def to_json_obj(self) -> dict:
        obj = {
            "strategy": self.strategy,
            "fee_policy": self.fee_policy,
            "mean": self.mean,
            "std_error": self.std_error,
            "ci99": list(self.ci99),
            "replicas": self.replicas,
            "truthful_profit": self.truthful_profit,
            "variance_reduction": "common_random_numbers",
        }
        if self.per_policy_means is not None:
            obj["per_policy_means"] = list(self.per_policy_means)
        return obj


def _summarize(samples: np.ndarray) -> tuple[float, float, tuple[float, float]]:
    mean = float(np.mean(samples))
    if samples.size < 2:
        return mean, 0.0, (mean, mean)
    se = float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
    return mean, se, (mean - Z99 * se, mean + Z99 * se)


def _policy_params(
    seed: int, index: int, base_spec: PrivacySpec
) -> tuple[float, float, float, float, int]:
    """Aggression, offset, width, epsilon and private period of random policy ``index``."""
    rng = policy_rng(seed, index)
    aggression = rng.uniform(0.2, 1.2)
    offset = rng.uniform(-0.4, 0.4) * max(base_spec.width, 1.0)
    width = base_spec.width * rng.uniform(0.5, 2.0)
    epsilon = base_spec.epsilon * rng.uniform(0.5, 2.0)
    private_period = int(rng.integers(1, 4))
    return aggression, offset, width, epsilon, private_period


def make_random_policy(
    seed: int, index: int, base_spec: PrivacySpec, true_price: float
) -> AdaptivePolicy:
    """A parameter-randomized but state-deterministic adaptive policy.

    Parameters (aggression toward the true-price reserve, a constant probe
    offset, masking width, epsilon, and how often to trade privately) are
    drawn once from the policy substream; the policy itself is then a pure
    function of the observed state (the private cadence reads
    ``state.trades``), so replicas stay reproducible and fee policies can be
    compared on identical noise streams.
    """
    aggression, offset, width, epsilon, private_period = _policy_params(seed, index, base_spec)

    def policy(state: MarketState) -> tuple[float, PrivacySpec] | None:
        target = state.curve.x_of_price(true_price)
        delta = aggression * (target - state.x) + offset
        cap = 0.25 * state.x  # keep probes small next to the reserve
        delta = min(max(delta, -cap), cap)
        if state.trades % private_period == 0 and width > 0.0:
            half = 0.5 * width
            return delta, PrivacySpec(delta - half, delta + half, epsilon)
        return delta, PrivacySpec(delta, delta, math.inf)

    return policy


def run_strategy_once(
    config: ExperimentConfig, state: MarketState, rng: np.random.Generator | None,
    policy: AdaptivePolicy | None = None,
) -> StrategyTrace:
    kind = config.strategy.kind
    factory = config.noise.factory()
    if kind == "truthful":
        return truthful_strategy(state, config.true_price)
    if kind == "noise_chasing":
        return noise_chasing_strategy(
            state, config.true_price, config.privacy, config.strategy.max_rounds, rng,
            fee_policy=config.fee_policy, dist_factory=factory,
        )
    if kind == "case1":
        return case1_deviation(
            state, config.true_price, config.strategy.trade_size, config.privacy, rng,
            fee_policy=config.fee_policy, dist_factory=factory,
        )
    if kind == "case2":
        return case2_deviation(
            state, config.true_price, config.strategy.detour_price,
            config.strategy.trade_size, config.privacy, rng,
            fee_policy=config.fee_policy, dist_factory=factory,
        )
    if kind == "adaptive_random":
        if policy is None:
            raise ValueError("adaptive_random needs a policy; use estimate_excess_profit")
        return run_adaptive(
            policy, state, config.true_price, config.strategy.bound, rng,
            fee_policy=config.fee_policy, dist_factory=factory,
        )
    raise ConfigError(f"unknown strategy kind {kind!r}")


# -- the batched replica engine --------------------------------------------------

# Replicas run together in blocks of at most _BLOCK, and each replica's
# uniforms are drawn _CHUNK at a time, so memory stays bounded whatever the
# replica count and the number of rounds.
_BLOCK = 4096
_CHUNK = 64


class _Replay(Exception):
    """Some replica of the block would raise in the scalar engine."""


def _y_of_x(curve: TradingCurve, x: np.ndarray) -> np.ndarray:
    """TradingCurve.y_of_x at each point, all of them inside the domain.

    LMSR points go through the scalar method one by one, here and in
    _reversal_gain: numpy's exp and log may round differently from math's.
    """
    if curve.family is Family.CONSTANT_PRODUCT:
        return curve.level / x
    if curve.family is Family.CONSTANT_SUM:
        return curve.level - curve.slope * x
    return np.array([curve.y_of_x(v) for v in x.tolist()])


def _reversal_gain(curve: TradingCurve, s: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """TradingCurve.reversal_gain at each (s, eta), both ends inside the domain."""
    if curve.family is Family.CONSTANT_PRODUCT:
        den = s * s * (s + eta)
        if np.any((den == 0.0) & (eta != 0.0)):  # the float division would raise
            raise _Replay
        return np.where(eta == 0.0, 0.0, curve.level * eta * eta / den)
    if curve.family is Family.CONSTANT_SUM:
        return np.zeros(s.size)
    return np.array([curve.reversal_gain(a, b) for a, b in zip(s.tolist(), eta.tolist())])


def _bad_shape(lo: np.ndarray, hi: np.ndarray, p_lo: np.ndarray, p_hi: np.ndarray) -> np.ndarray:
    """Where a two-atom NoiseDistribution would refuse its atoms."""
    tol = PROBABILITY_TOL
    total = 0.0 + p_lo + p_hi
    return ~(
        np.isfinite(lo) & np.isfinite(hi)
        & (-tol <= p_lo) & (p_lo <= 1.0 + tol) & (-tol <= p_hi) & (p_hi <= 1.0 + tol)
    ) | (np.abs(total - 1.0) > tol * 2)


class _Batch:
    """Replicas start..stop-1 of one experiment, one array entry per replica.

    The arrays hold what the scalar engine keeps per replica: MarketState's
    visible reserve and hidden account, and the running sums of y_out, fee
    and external cash that _Runner.finish totals. Replica i takes its
    uniforms from replica_rng(seed, i), one per noisy trade, as
    NoiseDistribution.sample does.
    """

    def __init__(
        self, config: ExperimentConfig, state0: MarketState, seed: int,
        start: int, stop: int, max_draws: int,
    ) -> None:
        n = stop - start
        self.curve = config.curve
        self.true_price = config.true_price
        self.fee_policy = config.fee_policy
        self.mu = config.noise.mu if config.noise.kind == "biased_binary" else None
        self.x = np.full(n, state0.x, dtype=float)
        self.hidden_x = np.full(n, state0.hidden_x, dtype=float)
        self.hidden_y = np.full(n, state0.hidden_y, dtype=float)
        self.y_out = np.zeros(n)
        self.fees = np.zeros(n)
        self.cash = np.zeros(n)
        self.gens = [replica_rng(seed, i) for i in range(start, stop)]
        self.chunk = max(0, min(max_draws, _CHUNK))  # a negative count runs no rounds
        self.uniforms = np.empty((n, self.chunk))
        self.used = np.full(n, self.chunk)  # columns of each row already consumed

    def _draw(self, rows: np.ndarray) -> np.ndarray:
        """The next uniform of each replica in rows."""
        spent = rows[self.used[rows] == self.chunk]
        for r in spent.tolist():
            self.uniforms[r] = self.gens[r].random(self.chunk)
        self.used[spent] = 0
        cols = self.used[rows]
        self.used[rows] = cols + 1
        return self.uniforms[rows, cols]

    def trade(
        self, rows: np.ndarray, delta: np.ndarray, lower: np.ndarray, upper: np.ndarray,
        epsilon: np.ndarray | float, tanh_half_eps: np.ndarray | float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """execute_trade plus the external hedge, for each replica in rows.

        The masking spec is [lower, upper] with budget epsilon, and
        tanh_half_eps = tanh(epsilon/2) as binary_mechanism computes it.
        Returns the mask of rows the hidden account supported (the others are
        left as they were) and the noise each supported row executed. Raises
        _Replay where execute_trade would raise anything but
        HiddenAccountError.
        """
        curve, t = self.curve, tanh_half_eps
        x = self.x[rows]
        # the PrivacySpec, execute_trade's and binary_mechanism's checks
        bad = ~(np.isfinite(lower) & np.isfinite(upper) & (lower <= upper) & (epsilon > 0.0))
        bad |= ~((lower <= delta) & (delta <= upper))
        noisy = (lower != upper) & ~np.isinf(epsilon)  # a degenerate spec gets the zero atom
        half = 0.5 * (upper - lower)
        mid = 0.5 * (upper + lower)
        big = half / t
        center = mid - delta
        d = (delta - mid) / half
        lo, hi = center - big, center + big
        p_lo, p_hi = 0.5 * (1.0 - d * t), 0.5 * (1.0 + d * t)
        bad |= noisy & ((epsilon < EPSILON_FLOOR) | (half == 0.0) | _bad_shape(lo, hi, p_lo, p_hi))
        if self.mu is not None:  # biased_binary: the same atoms with mean mu
            span = hi - lo
            p_hi = (self.mu - lo) / span
            p_lo = 1.0 - p_hi
            bad |= noisy & (
                (span == 0.0) | ~((0.0 <= p_hi) & (p_hi <= 1.0)) | _bad_shape(lo, hi, p_lo, p_hi)
            )
        lo, hi = np.where(noisy, lo, 0.0), np.where(noisy, hi, 0.0)
        # noise_fee: the post-trade and noised reserves stay on the curve
        s = x + delta
        s_lo, s_hi = s + lo, s + hi
        x_lo, x_hi = curve.x_lo, curve.x_hi
        bad |= ~(
            (x_lo <= s) & (s <= x_hi) & (x_lo <= s_lo) & (s_lo <= x_hi)
            & (x_lo <= s_hi) & (s_hi <= x_hi)
        )
        if bad.any():
            raise _Replay
        quote = (
            0.0 + np.where(lo == 0.0, 0.0, p_lo * _reversal_gain(curve, s, lo))
            + np.where(hi == 0.0, 0.0, p_hi * _reversal_gain(curve, s, hi))
        )
        if not np.isfinite(quote).all():
            raise _Replay
        # support_check: can the hidden account fund every atom? The atoms
        # straddle zero (|center| <= half <= big), so only hi can need X and
        # only lo can need Y.
        y_s = _y_of_x(curve, s)
        hidden_x, hidden_y = self.hidden_x[rows], self.hidden_y[rows]
        ok = ~(
            ((hi > 0.0) & (hidden_x < hi))
            | ((lo < 0.0) & (hidden_y < _y_of_x(curve, s_lo) - y_s))
        )
        if not ok.all():
            rows, x, delta, s, y_s, lo, hi, p_lo, noisy, quote, hidden_x, hidden_y = (
                a[ok] for a in (
                    rows, x, delta, s, y_s, lo, hi, p_lo, noisy, quote, hidden_x, hidden_y,
                )
            )
        fee = np.where(noisy, self.fee_policy.charge(quote), 0.0)
        eta = np.zeros(rows.size)
        draw = np.flatnonzero(noisy)
        if draw.size:
            u = self._draw(rows[draw])
            eta[draw] = np.where(u < p_lo[draw], lo[draw], hi[draw])
        post = s + eta
        y_post = _y_of_x(curve, post)
        self.y_out[rows] += _y_of_x(curve, x) - y_s
        self.fees[rows] += fee
        self.cash[rows] += self.true_price * -delta
        self.x[rows] = post
        self.hidden_x[rows] = hidden_x - eta
        self.hidden_y[rows] = hidden_y + (y_s - y_post)
        return ok, eta

    def trade_to(self, rows: np.ndarray, target: float) -> None:
        """Non-private trades landing each replica's reserve on ``target``."""
        delta = target - self.x[rows]
        move = delta != 0.0
        rows, delta = rows[move], delta[move]
        if rows.size:
            self.trade(rows, delta, delta, delta, math.inf, 1.0)

    def excess(self, benchmark: float) -> np.ndarray:
        """Each replica's total profit, summed as _Runner.finish does, less the benchmark."""
        # finish() also reads the terminal spot, which can fail where x*x underflows
        if self.curve.family is Family.CONSTANT_PRODUCT:
            if np.any(self.x * self.x == 0.0):
                raise _Replay
        elif self.curve.family is Family.LMSR:
            for v in self.x.tolist():
                self.curve.spot_price(v)
        return self.y_out - self.fees + self.cash - benchmark


def _run_block(
    config: ExperimentConfig, state0: MarketState, seed: int, start: int, stop: int,
    policies: np.ndarray | None, per_policy: int, benchmark: float,
) -> np.ndarray:
    """Excess profits of replicas start..stop-1, as run_strategy_once computes them.

    ``policies`` holds _policy_params rows for adaptive_random. Raises
    _Replay, or the error of a scalar curve query, where some replica would
    raise in the scalar engine.
    """
    strategy, spec, curve = config.strategy, config.privacy, config.curve
    kind = strategy.kind
    target = curve.x_of_price(config.true_price)
    rows = np.arange(stop - start)
    t = math.tanh(0.5 * spec.epsilon)
    if kind == "noise_chasing" and not spec.degenerate:
        batch = _Batch(config, state0, seed, start, stop, strategy.max_rounds)
        half = 0.5 * spec.width  # PrivacySpec.recentered
        live = rows
        for _ in range(strategy.max_rounds):
            if not live.size:
                break
            delta = target - batch.x[live]
            ok, eta = batch.trade(live, delta, delta - half, delta + half, spec.epsilon, t)
            live = live[ok][eta != 0.0]  # a rejected trade or a zero draw ends the chase
    elif kind in ("case1", "case2"):
        spot = state0.spot
        if kind == "case1" and not config.true_price > spot:
            raise _Replay
        if kind == "case2" and not (config.true_price < spot and strategy.detour_price > spot):
            raise _Replay
        batch = _Batch(config, state0, seed, start, stop, 1)
        if kind == "case2":
            batch.trade_to(rows, curve.x_of_price(strategy.detour_price))
        size = np.full(rows.size, strategy.trade_size, dtype=float)
        ok, _ = batch.trade(
            rows, size, np.full(rows.size, spec.lower), np.full(rows.size, spec.upper),
            spec.epsilon, t,
        )
        if not ok.all():  # these strategies let HiddenAccountError propagate
            raise _Replay
    elif kind == "adaptive_random":
        aggression, offset, width, epsilon, period, tanh_half = policies[
            (start + rows) // per_policy
        ].T
        batch = _Batch(config, state0, seed, start, stop, strategy.bound)
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
                np.where(private, epsilon[live], math.inf), tanh_half[live],
            )
            live = live[ok]
    elif kind in ("truthful", "noise_chasing"):  # chasing with nothing to mask is truthful
        batch = _Batch(config, state0, seed, start, stop, 0)
    else:  # run_strategy_once names the unknown kind
        raise _Replay
    if kind != "adaptive_random":
        batch.trade_to(rows, target)
    return batch.excess(benchmark)


def estimate_excess_profit(
    config: ExperimentConfig, *, keep_samples: bool = False
) -> ExcessProfitResult:
    """Monte Carlo estimate of a strategy's profit over the truthful benchmark.

    The benchmark is deterministic and computed once. For adaptive_random the
    replica budget is split evenly over the random policies and the confidence
    interval pools all samples. Replica i runs policy i // per_policy on
    stream i, whatever the strategy. The replicas run batched; every sample
    equals what run_strategy_once gives on replica_rng(seed, i).
    """
    seed = config.require_seed()
    state0 = config.initial_state()
    benchmark = truthful_strategy(state0, config.true_price).total_profit

    kind = config.strategy.kind
    if kind == "adaptive_random":
        n_policies = config.strategy.policies
        per_policy = max(1, config.replicas // n_policies)
        params = [_policy_params(seed, j, config.privacy) for j in range(n_policies)]
        policies = np.array([(*p, math.tanh(0.5 * p[3])) for p in params])
    else:
        n_policies, per_policy, policies = 1, config.replicas, None
    samples = np.empty(n_policies * per_policy)
    for start in range(0, samples.size, _BLOCK):
        stop = min(start + _BLOCK, samples.size)
        try:
            with np.errstate(all="ignore"):
                samples[start:stop] = _run_block(
                    config, state0, seed, start, stop, policies, per_policy, benchmark
                )
            continue
        except (_Replay, NoisyCfmmError, ArithmeticError):
            pass
        # Some replica would raise in the scalar engine: rerun the block there,
        # replica by replica, so that the first of them raises as it did.
        for i in range(start, stop):
            policy = None if policies is None else make_random_policy(
                seed, i // per_policy, config.privacy, config.true_price
            )
            trace = run_strategy_once(config, state0, replica_rng(seed, i), policy)
            samples[i] = trace.total_profit - benchmark
    per_policy_means = None
    if kind == "adaptive_random":
        per_policy_means = tuple(
            float(np.mean(row)) for row in samples.reshape(n_policies, per_policy)
        )
    mean, se, ci = _summarize(samples)
    return ExcessProfitResult(
        kind, config.fee_policy.kind.value, mean, se, ci, samples.size, benchmark,
        per_policy_means,
        tuple(samples.tolist()) if keep_samples else None,
    )


def check_expectation(result: ExcessProfitResult, expect: str | None) -> bool | None:
    """Evaluate a configured CI expectation; None means nothing was expected."""
    if expect is None:
        return None
    lo, hi = result.ci99
    if expect == "ci_contains_zero":
        return lo <= 0.0 <= hi
    if expect == "ci_above_zero":
        return lo > 0.0
    if expect == "ci_below_zero":
        return hi < 0.0
    if expect == "ci_contains_or_below_zero":
        return lo <= 0.0
    raise ConfigError(f"unknown expectation {expect!r}")


# -- witness scan for the two deviation cases ----------------------------------


def factor2_grid(lo: float = 1e-6, hi: float = 1e6) -> tuple[float, ...]:
    """Price grid in factor-of-two steps over [lo, hi]."""
    out = []
    v = lo
    while v <= hi * (1.0 + 1e-12):
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

    def to_json_obj(self) -> dict:
        return {
            "true_price": self.true_price,
            "detour_price": self.detour_price,
            "expected_excess": self.expected_excess,
            "supported": self.supported,
            "note": self.note,
        }


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

    def to_json_obj(self) -> dict:
        return {
            "case": self.case,
            "mu": self.mu,
            "found": self.found,
            "true_price": self.true_price,
            "detour_price": self.detour_price,
            "mean_excess": self.mean_excess,
            "std_error": self.std_error,
            "ci99": list(self.ci99) if self.ci99 else None,
            "replicas": self.replicas,
            "candidates": [c.to_json_obj() for c in self.candidates],
        }


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
    mean = 0.0
    second = 0.0
    for atom in dist.atoms:
        # split off the curve-exact part so nothing cancels when p_hat ~ P(s)
        step = curve.reversal_gain(s, atom.eta) + atom.eta * (true_price - p_s)
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
    trade_size = config.strategy.trade_size if config.strategy else 1.0
    dist = biased_binary(trade_size, config.privacy, mu)
    spot = config.initial_state().spot
    grid = factor2_grid()
    margin = 2.0  # require the predicted CI to clear zero by this factor

    def charged(pre_x: float) -> float:
        return config.fee_policy.charge(noise_fee(curve, pre_x, trade_size, dist).gamma)

    candidates: list[WitnessCandidate] = []

    def scan() -> tuple[float, float | None] | None:
        if case == "positive_mean":
            for p_hat in grid:
                if not p_hat > spot:
                    continue
                try:
                    fee_here = charged(config.initial_x)
                    expected, sd = _deviation_moments(
                        curve, config.initial_x, trade_size, dist, fee_here, p_hat
                    )
                    # the correction leg must stay on the curve too
                    curve.x_of_price(p_hat)
                except DomainError:
                    candidates.append(WitnessCandidate(p_hat, None, None, False, "out of domain"))
                    continue
                need = margin * Z99 * sd / math.sqrt(config.replicas)
                ok = expected > need
                candidates.append(
                    WitnessCandidate(p_hat, None, expected, True, "screened" if ok else "margin")
                )
                if ok:
                    return p_hat, None
            return None
        # negative_mean: pick the largest admissible true price, scan detours up
        bound = min(spot, math.inf if mu == 0.0 else 1.0 / abs(mu))
        p_hats = [g for g in grid if g < bound]
        if not p_hats:
            return None
        p_hat = max(p_hats)
        for detour in grid:
            if not detour > spot:
                continue
            try:
                x_detour = curve.x_of_price(detour)
            except DomainError:
                candidates.append(WitnessCandidate(p_hat, detour, None, False, "out of domain"))
                continue
            probe = MarketState(curve, x_detour, config.hidden_x, config.hidden_y)
            if not support_check(probe, trade_size, dist):
                candidates.append(
                    WitnessCandidate(p_hat, detour, None, False, "hidden account cannot support")
                )
                continue
            try:
                fee_here = charged(x_detour)
                expected, sd = _deviation_moments(
                    curve, x_detour, trade_size, dist, fee_here, p_hat
                )
            except DomainError:
                candidates.append(WitnessCandidate(p_hat, detour, None, False, "out of domain"))
                continue
            need = margin * Z99 * sd / math.sqrt(config.replicas)
            ok = expected > need
            candidates.append(
                WitnessCandidate(p_hat, detour, expected, True, "screened" if ok else "margin")
            )
            if ok:
                return p_hat, detour
        return None

    hit = scan()
    if hit is None:
        return WitnessScanResult(
            case, mu, False, None, None, None, None, None, config.replicas, tuple(candidates)
        )
    p_hat, detour = hit
    if detour is None:
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


# -- fee versus liquidity -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScalingRow:
    multiplier: float
    level: float
    gamma: float
    liquidity: float
    fee_liquidity_product: float

    def to_json_obj(self) -> dict:
        return {
            "multiplier": self.multiplier,
            "level": self.level,
            "gamma": self.gamma,
            "liquidity": self.liquidity,
            "fee_liquidity_product": self.fee_liquidity_product,
        }


@dataclass(frozen=True, slots=True)
class ScalingStudyResult:
    rows: tuple[ScalingRow, ...]
    price: float
    trade_size: float
    max_relative_spread: float

    def to_json_obj(self) -> dict:
        return {
            "rows": [r.to_json_obj() for r in self.rows],
            "price": self.price,
            "trade_size": self.trade_size,
            "max_relative_spread": self.max_relative_spread,
        }


def liquidity_scaling_study(
    base_level: float,
    multipliers: Sequence[float],
    price: float,
    trade_size: float,
    spec: PrivacySpec,
) -> ScalingStudyResult:
    """Fee times |liquidity| across constant-product curves of scaled depth.

    The same trade with the same masking spec is priced on each curve at the
    reserve point with the given spot price. The product column is the
    inverse-liquidity law: it stays (approximately) constant while the fee
    itself shrinks as depth grows. max_relative_spread is the worst relative
    deviation of the product column from its mean.
    """
    dist = binary_mechanism(trade_size, spec)
    rows = []
    for m in multipliers:
        curve = TradingCurve.constant_product(m * base_level)
        x = curve.x_of_price(price)
        gamma = noise_fee(curve, x, trade_size, dist).gamma
        liq = curve.liquidity(price)
        assert liq is not None  # constant product always has finite price slope
        rows.append(ScalingRow(m, m * base_level, gamma, liq, gamma * abs(liq)))
    products = np.array([r.fee_liquidity_product for r in rows])
    center = float(np.mean(products))
    spread = float(np.max(np.abs(products - center)) / abs(center)) if center else math.inf
    return ScalingStudyResult(tuple(rows), price, trade_size, spread)


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
        if n_inputs < 1 or n_outputs < 1:
            raise ConfigError("grids need at least one point each")
        if spec.degenerate:
            inputs = (spec.lower,)
            outputs = (spec.lower,)
            return cls(curve, reference_x, spec, inputs, outputs)
        inputs = tuple(np.linspace(spec.lower, spec.upper, n_inputs).tolist())
        big = 0.5 * spec.width / math.tanh(0.5 * spec.epsilon)
        outputs = tuple(
            np.linspace(spec.midpoint - big, spec.midpoint + big, n_outputs).tolist()
        )
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
        """Fee of the designed noise for the input grid point nearest delta."""
        grid = self.problem.input_grid
        i = min(range(len(grid)), key=lambda k: abs(grid[k] - delta))
        return self.per_input_fees[i]

    def mechanism(self) -> Callable[[float], NoiseDistribution]:
        """Adapter for verify_pldp: maps a grid input to its designed noise."""
        grid = self.problem.input_grid
        dists = self.distributions
        scale = max(1.0, max(abs(g) for g in grid))

        def lookup(v: float) -> NoiseDistribution:
            i = min(range(len(grid)), key=lambda k: abs(grid[k] - v))
            if abs(grid[i] - v) > 1e-9 * scale:
                raise ValueError(f"input {v} is not on the design grid")
            return dists[i]

        return lookup

    def to_json_obj(self) -> dict:
        return {
            "input_grid": list(self.problem.input_grid),
            "output_grid": list(self.problem.output_grid),
            "reference_x": self.problem.reference_x,
            "privacy": self.problem.spec.to_json_obj(),
            "distributions": [d.to_json_obj() for d in self.distributions],
            "per_input_fees": list(self.per_input_fees),
            "average_fee": self.average_fee,
            "outputs_used": list(self.outputs_used),
            "status": self.status,
        }


def _fee_cost_matrix(problem: LPNoiseProblem) -> np.ndarray:
    curve, x_ref = problem.curve, problem.reference_x
    m, n = len(problem.input_grid), len(problem.output_grid)
    cost = np.empty((m, n))
    for i, v in enumerate(problem.input_grid):
        s = x_ref + v
        for j, o in enumerate(problem.output_grid):
            cost[i, j] = curve.reversal_gain(s, o - v)
    return cost


# Likelihood-ratio constraints above this epsilon are numerically vacuous
# (ratio > 5e21) and only poison the LP scaling, so they are dropped.
_RATIO_EPS_CAP = 50.0


def optimize_noise_lp(problem: LPNoiseProblem, method: str = "highs") -> NoiseLPSolution:
    """Solve the cheapest-noise linear program.

    Variables are the m*n output probabilities (inputs major, outputs minor).
    Columns whose mass is everywhere below 1e-10 are dropped from the
    solution and rows renormalized; the ratio constraints force any used
    output to be used by every input, so this cannot orphan anyone.
    """
    problem.validate()
    vins = np.array(problem.input_grid)
    outs = np.array(problem.output_grid)
    m, n = len(vins), len(outs)
    cost = _fee_cost_matrix(problem)

    # equalities: each row sums to one, each row's mean output is its input
    eq_rows: list[np.ndarray] = []
    eq_cols: list[np.ndarray] = []
    eq_data: list[np.ndarray] = []
    var = np.arange(m * n).reshape(m, n)
    for i in range(m):
        eq_rows.append(np.full(n, i))
        eq_cols.append(var[i])
        eq_data.append(np.ones(n))
    for i in range(m):
        eq_rows.append(np.full(n, m + i))
        eq_cols.append(var[i])
        eq_data.append(outs - vins[i])
    a_eq = sparse.coo_matrix(
        (np.concatenate(eq_data), (np.concatenate(eq_rows), np.concatenate(eq_cols))),
        shape=(2 * m, m * n),
    ).tocsc()
    b_eq = np.concatenate([np.ones(m), np.zeros(m)])

    # inequalities: p(o|v) <= e^eps * p(o|v') for every ordered input pair
    use_ratio = m > 1 and problem.spec.epsilon <= _RATIO_EPS_CAP
    a_ub = None
    b_ub = None
    if use_ratio:
        e_eps = math.exp(problem.spec.epsilon)
        rows_i: list[np.ndarray] = []
        cols_i: list[np.ndarray] = []
        data_i: list[np.ndarray] = []
        r = 0
        for i in range(m):
            for i2 in range(m):
                if i == i2:
                    continue
                idx = np.arange(r, r + n)
                rows_i.extend([idx, idx])
                cols_i.extend([var[i], var[i2]])
                data_i.extend([np.ones(n), np.full(n, -e_eps)])
                r += n
        a_ub = sparse.coo_matrix(
            (np.concatenate(data_i), (np.concatenate(rows_i), np.concatenate(cols_i))),
            shape=(r, m * n),
        ).tocsc()
        b_ub = np.zeros(r)

    objective = (cost / m).ravel()
    res = linprog(
        objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(0.0, None), method=method,
    )
    if not res.success:
        raise OptimizationError(f"noise design LP failed: {res.message}")

    q = np.maximum(res.x.reshape(m, n), 0.0)
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
        status=str(res.message),
    )


@dataclass(frozen=True, slots=True)
class NoiseSolutionCheck:
    max_zero_mean_violation: float
    pldp: PLDPReport
    ok: bool

    def to_json_obj(self) -> dict:
        return {
            "max_zero_mean_violation": self.max_zero_mean_violation,
            "max_ratio": self.pldp.max_ratio,
            "ratio_bound": self.pldp.bound,
            "pldp_satisfied": self.pldp.satisfied,
            "ok": self.ok,
        }


def validate_lp_solution(
    solution: NoiseLPSolution, tol: float = 1e-8
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
