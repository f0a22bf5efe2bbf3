"""Strategy traces: truthful benchmark, deviations, adaptive runner."""

import math

import numpy as np
import pytest

from noisycfmm import (
    FeePolicy,
    MarketState,
    PrivacySpec,
    StrategyTrace,
    TradingCurve,
    case1_deviation,
    case2_deviation,
    noise_chasing_strategy,
    run_adaptive,
    truthful_strategy,
)

CP = TradingCurve.constant_product(1e4)
REF_SPEC = PrivacySpec(0.0, 2.0, 2.0)

IDENTITY_TOL = 1e-9


def fresh_state() -> MarketState:
    return MarketState(CP, 100.0, 1e9, 1e9)


def decomposition_gap(trace: StrategyTrace, truthful: StrategyTrace, true_price: float) -> float:
    """Residual of: excess = -sum(fees) + sum of per-step noise income.

    Each step's noise income is the Y the hidden account loses on the noise
    leg plus the value of the eta inventory at the true price. Strategies
    that end on the true price have no terminal gap, so the residual should
    be zero to rounding.
    """
    income = 0.0
    for r in trace.steps:
        s = r.post_x - r.eta
        income += CP.y_of_x(r.post_x) - CP.y_of_x(s) + true_price * r.eta
    excess = trace.total_profit - truthful.total_profit
    return excess - (income - trace.fees_paid)


class TestTruthfulBenchmark:
    def test_profit_golden_above_spot(self):
        trace = truthful_strategy(fresh_state(), 4.0)
        assert trace.total_profit == pytest.approx(100.0, rel=1e-12)
        assert trace.terminal_spot == pytest.approx(4.0, rel=1e-12)
        assert len(trace.steps) == 1
        assert trace.fees_paid == 0.0

    def test_pool_at_the_true_price_books_float_zeros(self):
        # no trade at all: every total is the float 0.0, never the int 0
        trace = truthful_strategy(fresh_state(), 1.0)
        assert trace.steps == ()
        assert [repr(trace.total_profit), repr(trace.fees_paid)] == ["0.0", "0.0"]

    def test_profit_golden_below_spot(self):
        trace = truthful_strategy(fresh_state(), 0.25)
        assert trace.total_profit == pytest.approx(25.0, rel=1e-12)
        # cheap X outside: sell reserve X to the pool, delta positive
        assert trace.steps[0].delta == pytest.approx(100.0, rel=1e-12)

    def test_profit_golden_near_spot(self):
        trace = truthful_strategy(fresh_state(), 1.5)
        assert trace.total_profit == pytest.approx(5.051025721682187, rel=1e-12)

    def test_at_spot_no_trade_no_profit(self):
        trace = truthful_strategy(fresh_state(), 1.0)
        assert trace.steps == ()
        assert trace.total_profit == 0.0

    def test_is_deterministic(self):
        a = truthful_strategy(fresh_state(), 1.5)
        b = truthful_strategy(fresh_state(), 1.5)
        assert a == b


class TestNoiseChasing:
    def test_degenerate_spec_is_truthful(self):
        degenerate = PrivacySpec(0.0, 0.0, 2.0)
        trace = noise_chasing_strategy(fresh_state(), 1.5, degenerate, rng=np.random.default_rng(0))
        assert trace == truthful_strategy(fresh_state(), 1.5)

    def test_round_budget(self):
        rng = np.random.default_rng(5)
        trace = noise_chasing_strategy(fresh_state(), 1.5, REF_SPEC, max_rounds=6, rng=rng)
        # binary noise never draws zero off a degenerate spec, so the loop
        # runs its full budget and one final correction lands on the target
        assert len(trace.steps) == 7
        assert trace.steps[-1].eta == 0.0
        assert trace.terminal_spot == pytest.approx(1.5, rel=1e-12)

    def test_seeded_runs_agree(self):
        a = noise_chasing_strategy(fresh_state(), 1.5, REF_SPEC, 8, np.random.default_rng(3))
        b = noise_chasing_strategy(fresh_state(), 1.5, REF_SPEC, 8, np.random.default_rng(3))
        assert a == b

    def test_pays_fees_every_private_round(self):
        trace = noise_chasing_strategy(fresh_state(), 1.5, REF_SPEC, 4, np.random.default_rng(1))
        private = [r for r in trace.steps if not math.isinf(r.spec.epsilon)]
        assert len(private) == 4
        assert all(r.gamma > 0 for r in private)

    def test_zero_fee_policy_charges_nothing(self):
        trace = noise_chasing_strategy(
            fresh_state(), 1.5, REF_SPEC, 4, np.random.default_rng(1),
            fee_policy=FeePolicy.zero(),
        )
        assert trace.fees_paid == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_excess_decomposition_identity(self, seed):
        truthful = truthful_strategy(fresh_state(), 1.5)
        trace = noise_chasing_strategy(
            fresh_state(), 1.5, REF_SPEC, 8, np.random.default_rng(seed)
        )
        assert abs(decomposition_gap(trace, truthful, 1.5)) < IDENTITY_TOL


class TestDeviations:
    def test_case1_needs_room_above(self):
        with pytest.raises(ValueError):
            case1_deviation(fresh_state(), 0.9, 1.0, REF_SPEC, np.random.default_rng(0))

    def test_case1_shape(self):
        trace = case1_deviation(fresh_state(), 1.5, 1.0, REF_SPEC, np.random.default_rng(2))
        assert len(trace.steps) == 2
        assert trace.steps[0].gamma > 0
        assert math.isinf(trace.steps[1].spec.epsilon)
        assert trace.terminal_spot == pytest.approx(1.5, rel=1e-12)

    def test_case2_ordering_checks(self):
        with pytest.raises(ValueError):
            case2_deviation(fresh_state(), 1.5, 2.0, 1.0, REF_SPEC)  # target above spot
        with pytest.raises(ValueError):
            case2_deviation(fresh_state(), 0.5, 0.8, 1.0, REF_SPEC)  # detour below spot

    def test_case2_shape(self):
        spec = PrivacySpec(-2.0, 0.0, 2.0)
        trace = case2_deviation(fresh_state(), 0.5, 2.0, -1.0, spec, np.random.default_rng(4))
        # detour up, private trade at the detour, correction down
        assert len(trace.steps) == 3
        assert trace.steps[0].delta < 0
        assert trace.steps[1].gamma > 0
        assert trace.steps[2].delta > 0
        assert trace.terminal_spot == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_case1_decomposition_identity(self, seed):
        truthful = truthful_strategy(fresh_state(), 1.5)
        trace = case1_deviation(fresh_state(), 1.5, 1.0, REF_SPEC, np.random.default_rng(seed))
        assert abs(decomposition_gap(trace, truthful, 1.5)) < IDENTITY_TOL

    @pytest.mark.parametrize("seed", range(4))
    def test_case2_decomposition_identity(self, seed):
        spec = PrivacySpec(-2.0, 0.0, 2.0)
        truthful = truthful_strategy(fresh_state(), 0.5)
        trace = case2_deviation(
            fresh_state(), 0.5, 2.0, -1.0, spec, np.random.default_rng(seed)
        )
        assert abs(decomposition_gap(trace, truthful, 0.5)) < IDENTITY_TOL


class TestAdaptiveRunner:
    def test_always_stop_earns_nothing(self):
        trace = run_adaptive(lambda state: None, fresh_state(), 1.5, 16)
        assert trace.steps == ()
        assert trace.total_profit == 0.0

    def test_one_shot_truthful_policy_matches_benchmark(self):
        def policy(state):
            delta = state.curve.x_of_price(1.5) - state.x
            if delta == 0.0:
                return None
            return delta, PrivacySpec(delta, delta, np.inf)

        trace = run_adaptive(policy, fresh_state(), 1.5, 16)
        assert trace.total_profit == truthful_strategy(fresh_state(), 1.5).total_profit

    def test_bound_is_respected(self):
        def restless(state):
            return 0.5, PrivacySpec(0.5, 0.5, np.inf)

        trace = run_adaptive(restless, fresh_state(), 1.0, 5)
        assert len(trace.steps) == 5

    def test_flat_x_inventory(self):
        trace = noise_chasing_strategy(fresh_state(), 1.5, REF_SPEC, 6, np.random.default_rng(8))
        bought_on_market = sum(r.delta for r in trace.steps)
        hedged_outside = sum(f.x_amount for f in trace.external_flows)
        assert bought_on_market + hedged_outside == pytest.approx(0.0, abs=1e-12)
