"""Arbitrage strategies against the noisy market maker.

Every strategy here plays the same game: trade with the market maker, hedge
each X leg on an infinitely deep external venue at the true price, end flat
in X, and book the Y total as profit. The benchmark is the one-shot truthful
strategy that moves the spot straight to the true price without privacy. A
strategy's excess over that benchmark is what the privacy fee is supposed to
kill in expectation: chasing the noise round after round, or wrapping a
private trade inside corrections, must not beat honesty when the noise is
zero-mean and priced.

Traces record every market trade and every external settlement, in memory,
which lets tests verify the profit decomposition step by step rather than
trusting the bottom line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import ConfigError, HiddenAccountError
from .market import (
    NOISE_FEE_POLICY,
    DistFactory,
    FeePolicy,
    MarketState,
    TradeRecord,
    execute_trade,
)
from .privacy import PrivacySpec, binary_mechanism

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_ROUNDS = 64


@dataclass(frozen=True, slots=True)
class ExternalFlow:
    """One settlement on the outside venue: X sold (negative = bought) and Y received."""

    x_amount: float
    y_cash: float


@dataclass(frozen=True, slots=True)
class StrategyTrace:
    steps: tuple[TradeRecord, ...]
    external_flows: tuple[ExternalFlow, ...]
    total_profit: float
    terminal_spot: float

    @property
    def fees_paid(self) -> float:
        total = 0.0  # a loop, not sum(), which compensates from Python 3.12 on
        for r in self.steps:
            total += r.gamma
        return total


class _Runner:
    """Shared bookkeeping: execute trades, hedge each X leg, total the Y."""

    def __init__(
        self,
        state: MarketState,
        true_price: float,
        rng: np.random.Generator | None,
        fee_policy: FeePolicy,
        dist_factory: DistFactory,
    ) -> None:
        self.state = state
        self.true_price = true_price
        self.rng = rng
        self.fee_policy = fee_policy
        self.dist_factory = dist_factory
        self.steps: list[TradeRecord] = []
        self.flows: list[ExternalFlow] = []

    def trade(self, delta: float, spec: PrivacySpec) -> TradeRecord:
        self.state, record = execute_trade(
            self.state,
            delta,
            spec,
            self.rng,
            dist_factory=self.dist_factory,
            fee_policy=self.fee_policy,
        )
        self.steps.append(record)
        # The trader handed delta X to the market; buy it back (sell, when
        # negative) outside immediately so inventory stays flat in X.
        y_cash = self.true_price * -delta
        self.flows.append(ExternalFlow(-delta, y_cash))
        return record

    def correction_delta(self) -> float:
        return self.state.curve.x_of_price(self.true_price) - self.state.x

    def trade_to_true_price(self) -> TradeRecord | None:
        """Non-private trade landing the spot exactly on the true price."""
        delta = self.correction_delta()
        if delta == 0.0:
            return None
        return self.trade(delta, PrivacySpec(delta, delta, math.inf))

    def finish(self) -> StrategyTrace:
        y_out = fees = cash = 0.0  # loops, not sum(), which compensates from Python 3.12 on
        for r in self.steps:
            y_out += r.y_out
            fees += r.gamma
        for f in self.flows:
            cash += f.y_cash
        profit = y_out - fees + cash
        return StrategyTrace(
            steps=tuple(self.steps),
            external_flows=tuple(self.flows),
            total_profit=profit,
            terminal_spot=self.state.spot,
        )


def truthful_strategy(state: MarketState, true_price: float) -> StrategyTrace:
    """One non-private trade moving the spot to the true price, then hedge.

    Deterministic, fee-free, and the profit benchmark every other strategy is
    measured against. Profit equals the area between the price curve and the
    true price over the traded reserve interval.
    """
    runner = _Runner(state, true_price, None, NOISE_FEE_POLICY, binary_mechanism)
    runner.trade_to_true_price()
    return runner.finish()


def noise_chasing_strategy(
    state: MarketState,
    true_price: float,
    spec: PrivacySpec,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    rng: np.random.Generator | None = None,
    *,
    fee_policy: FeePolicy = NOISE_FEE_POLICY,
    dist_factory: DistFactory = binary_mechanism,
) -> StrategyTrace:
    """Repeatedly correct the spot to the true price with private trades.

    Each round trades the spot back to the true price under a masking
    interval of the given width and epsilon re-centered on that round's
    correction (the correction must lie inside its own interval). The loop
    stops on a zero noise draw, after ``max_rounds``, or when the market
    rejects a trade; a final non-private correction then lands the spot on
    the true price so the trace ends where the truthful benchmark does. With
    a degenerate spec there is nothing to chase and this is exactly the
    truthful strategy.
    """
    if spec.degenerate:
        return truthful_strategy(state, true_price)
    runner = _Runner(state, true_price, rng, fee_policy, dist_factory)
    for _ in range(max_rounds):
        delta = runner.correction_delta()
        try:
            record = runner.trade(delta, spec.recentered(delta))
        except HiddenAccountError:
            break
        if record.eta == 0.0:
            break
    runner.trade_to_true_price()
    return runner.finish()


def check_case1(true_price: float, spot: float) -> None:
    """Raise ConfigError unless the true price lies above the spot, as case1 needs."""
    if not true_price > spot:
        raise ConfigError(f"needs true price above the current spot, got {true_price} <= {spot}")


def check_case2(true_price: float, detour: float, spot: float) -> None:
    """Raise ConfigError unless true price < spot < detour price, as case2 needs."""
    if not true_price < spot:
        raise ConfigError(f"needs true price below the current spot, got {true_price} >= {spot}")
    if not detour > spot:
        raise ConfigError(f"needs detour price above the current spot, got {detour} <= {spot}")


def case1_deviation(
    state: MarketState,
    true_price: float,
    trade_size: float,
    spec: PrivacySpec,
    rng: np.random.Generator | None = None,
    *,
    fee_policy: FeePolicy = NOISE_FEE_POLICY,
    dist_factory: DistFactory = binary_mechanism,
) -> StrategyTrace:
    """Private trade first, then a non-private correction to the true price.

    The deviation probing positive-mean noise: requires the true price above
    the current spot. With zero-mean priced noise its expected profit equals
    the truthful benchmark; with positively biased noise and a large enough
    true price it beats it.
    """
    check_case1(true_price, state.spot)
    runner = _Runner(state, true_price, rng, fee_policy, dist_factory)
    runner.trade(trade_size, spec)
    runner.trade_to_true_price()
    return runner.finish()


def case2_deviation(
    state: MarketState,
    true_price: float,
    detour_price: float,
    trade_size: float,
    spec: PrivacySpec,
    rng: np.random.Generator | None = None,
    *,
    fee_policy: FeePolicy = NOISE_FEE_POLICY,
    dist_factory: DistFactory = binary_mechanism,
) -> StrategyTrace:
    """Detour to a high price, trade privately there, correct to the true price.

    The deviation probing negative-mean noise: requires the true price below
    the current spot and the detour above it. The detour parks the market
    where reserves are thin, so the same noise atoms move the price much
    more; negatively biased noise there hands the arbitrageur X it can sell
    back on the way down to the true price. A detour the hidden account
    cannot support surfaces as HiddenAccountError.
    """
    check_case2(true_price, detour_price, state.spot)
    runner = _Runner(state, true_price, rng, fee_policy, dist_factory)
    detour = state.curve.x_of_price(detour_price) - state.x
    if detour != 0.0:
        runner.trade(detour, PrivacySpec(detour, detour, math.inf))
    runner.trade(trade_size, spec)
    runner.trade_to_true_price()
    return runner.finish()


# An adaptive policy maps the observed market state to the next move:
# (trade, masking spec) to continue, None to stop.
AdaptivePolicy = Callable[[MarketState], "tuple[float, PrivacySpec] | None"]


def run_adaptive(
    policy: AdaptivePolicy,
    state: MarketState,
    true_price: float,
    bound: int,
    rng: np.random.Generator | None = None,
    *,
    fee_policy: FeePolicy = NOISE_FEE_POLICY,
    dist_factory: DistFactory = binary_mechanism,
) -> StrategyTrace:
    """Drive an arbitrary bounded adaptive policy against the market.

    The policy sees the full market state (including ``state.trades``, the
    number of trades executed so far) and decides the next private or
    non-private trade; the runner hedges every X leg at the true price,
    stops after ``bound`` trades or when the policy stops or a trade is
    rejected, and reports the trace. This is the harness
    for the optional-stopping experiments: any such bounded policy has
    expected excess at most zero when the noise is zero-mean and priced.
    """
    runner = _Runner(state, true_price, rng, fee_policy, dist_factory)
    for _ in range(bound):
        action = policy(runner.state)
        if action is None:
            break
        delta, spec = action
        try:
            runner.trade(delta, spec)
        except HiddenAccountError:
            break
    return runner.finish()
