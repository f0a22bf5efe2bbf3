"""Market state machine: trade pipeline, hidden account, fee policies, eavesdropper."""

import numpy as np
import pytest

from noisycfmm import (
    DomainError,
    FeePolicy,
    HiddenAccountError,
    MarketState,
    PrivacySpec,
    SpecViolationError,
    TradingCurve,
    binary_mechanism,
    eavesdrop_infer,
    execute_trade,
    noise_fee,
    support_check,
    to_json,
    trade_fee,
)
from noisycfmm.market import parse_fee_policy

CP = TradingCurve.constant_product(1e4)
REF_SPEC = PrivacySpec(0.0, 2.0, 2.0)

# Reserve bookkeeping is pure addition; any drift is a bug.
BOOK_TOL = 1e-12


def fresh_state(hidden_x=1e6, hidden_y=1e6) -> MarketState:
    return MarketState(CP, 100.0, hidden_x, hidden_y)


class TestExecuteTrade:
    def test_conservation(self):
        state = fresh_state()
        new, rec = execute_trade(state, 1.0, REF_SPEC, np.random.default_rng(0))
        # x moves by delta + eta; the hidden account absorbs eta on both legs
        assert new.x == pytest.approx(100.0 + rec.delta + rec.eta, abs=BOOK_TOL)
        assert new.hidden_x == pytest.approx(state.hidden_x - rec.eta, abs=BOOK_TOL)
        visible_y_move = CP.y_of_x(101.0) - CP.y_of_x(100.0)
        hidden_y_move = CP.y_of_x(101.0 + rec.eta) - CP.y_of_x(101.0)
        assert new.hidden_y == pytest.approx(state.hidden_y - hidden_y_move, abs=1e-9)
        assert rec.y_out == pytest.approx(-visible_y_move, abs=1e-9)

    def test_trader_pays_visible_amount_only(self):
        # the trader's Y payout is computed at s, before noise lands
        state = fresh_state()
        _, rec = execute_trade(state, 1.0, REF_SPEC, np.random.default_rng(1))
        assert rec.y_out == pytest.approx(1e4 / 100.0 - 1e4 / 101.0, rel=1e-12)

    def test_fee_equals_quote_by_default(self):
        state = fresh_state()
        d = binary_mechanism(1.0, REF_SPEC)
        quote = noise_fee(CP, 100.0, 1.0, d).gamma
        _, rec = execute_trade(state, 1.0, REF_SPEC, np.random.default_rng(2))
        assert rec.gamma == pytest.approx(quote, rel=1e-12)

    def test_non_private_pays_nothing(self):
        state = fresh_state()
        new, rec = execute_trade(state, 1.0, PrivacySpec(1.0, 1.0, 2.0))
        assert rec.gamma == 0.0
        assert rec.eta == 0.0
        assert new.x == 101.0

    def test_zero_noise_free_even_with_fixed_policy(self):
        # fee policies price noise; a noiseless trade has none to price
        state = fresh_state()
        _, rec = execute_trade(
            state, 1.0, PrivacySpec(1.0, 1.0, 2.0), fee_policy=FeePolicy.fixed(0.5)
        )
        assert rec.gamma == 0.0

    def test_delta_outside_interval(self):
        with pytest.raises(SpecViolationError):
            execute_trade(fresh_state(), 5.0, REF_SPEC, np.random.default_rng(0))

    def test_immutability(self):
        state = fresh_state()
        execute_trade(state, 1.0, REF_SPEC, np.random.default_rng(0))
        assert state.x == 100.0
        assert state.trades == 0

    def test_log_grows(self):
        state = fresh_state()
        rng = np.random.default_rng(3)
        for k in range(4):
            state, _ = execute_trade(state, 0.5, REF_SPEC.recentered(0.5), rng)
            assert state.trades == k + 1

    def test_same_seed_same_trajectory(self):
        runs = []
        for _ in range(2):
            state = fresh_state()
            rng = np.random.default_rng(7)
            for _ in range(5):
                state, _ = execute_trade(state, 0.3, REF_SPEC.recentered(0.3), rng)
            runs.append(state.x)
        assert runs[0] == runs[1]


class TestFeePolicies:
    def test_policy_arithmetic(self):
        assert FeePolicy.noise_fee().charge(0.4) == 0.4
        assert FeePolicy.zero().charge(0.4) == 0.0
        assert FeePolicy.fixed(0.1).charge(0.4) == 0.1
        assert FeePolicy.scaled(2.0).charge(0.4) == 0.8

    def test_json_form(self):
        assert to_json(FeePolicy.noise_fee()) == {"policy": "noise_fee"}
        assert to_json(FeePolicy.fixed(0.1)) == {"policy": "fixed", "value": 0.1}
        assert to_json(FeePolicy.scaled(2.0)) == {"policy": "scaled", "multiplier": 2.0}

    @pytest.mark.parametrize("policy", [
        FeePolicy.noise_fee(), FeePolicy.zero(), FeePolicy.fixed(0.1), FeePolicy.scaled(2.0),
    ])
    def test_json_form_reads_back(self, policy):
        assert parse_fee_policy(to_json(policy)) == policy

    def test_record_keeps_the_scaled_charge(self):
        rng = np.random.default_rng(4)
        _, r1 = execute_trade(fresh_state(), 1.0, REF_SPEC, rng, fee_policy=FeePolicy.scaled(3.0))
        d = binary_mechanism(1.0, REF_SPEC)
        quote = noise_fee(CP, 100.0, 1.0, d).gamma
        assert r1.gamma == pytest.approx(3.0 * quote, rel=1e-12)


class TestTradeFee:
    """The fee stages execute_trade runs, in its order: price, support, charge."""

    def test_is_what_execute_trade_charges(self):
        d = binary_mechanism(1.0, REF_SPEC)
        for policy in (FeePolicy.noise_fee(), FeePolicy.fixed(0.1), FeePolicy.scaled(3.0)):
            _, rec = execute_trade(
                fresh_state(), 1.0, REF_SPEC, np.random.default_rng(0), fee_policy=policy
            )
            assert trade_fee(fresh_state(), 1.0, d, policy) == rec.gamma

    def test_domain_is_checked_before_the_hidden_account(self):
        # the lower atom of a trade of 0 on [-300, 300] leaves the curve
        d = binary_mechanism(0.0, PrivacySpec(-300.0, 300.0, 2.0))
        with pytest.raises(DomainError):
            trade_fee(fresh_state(hidden_x=0.0, hidden_y=0.0), 0.0, d, FeePolicy.noise_fee())

    def test_unsupported_noise_raises(self):
        d = binary_mechanism(1.0, REF_SPEC)
        with pytest.raises(HiddenAccountError, match="cannot support"):
            trade_fee(fresh_state(hidden_x=0.1), 1.0, d, FeePolicy.noise_fee())

    def test_zero_noise_pays_nothing_under_any_policy(self):
        d = binary_mechanism(1.0, PrivacySpec(1.0, 1.0, 2.0))
        assert trade_fee(fresh_state(), 1.0, d, FeePolicy.fixed(5.0)) == 0.0


class TestHiddenAccount:
    def test_support_check_bounds(self):
        d = binary_mechanism(1.0, REF_SPEC)
        big = max(abs(a.eta) for a in d.atoms)
        assert support_check(fresh_state(), 1.0, d)
        # hidden X a hair below the worst positive atom fails
        assert not support_check(MarketState(CP, 100.0, 0.9 * big, 1e6), 1.0, d)

    def test_hidden_y_side(self):
        d = binary_mechanism(1.0, REF_SPEC)
        need = CP.y_of_x(101.0 + d.atoms[0].eta) - CP.y_of_x(101.0)
        assert not support_check(MarketState(CP, 100.0, 1e6, 0.99 * need), 1.0, d)
        assert support_check(MarketState(CP, 100.0, 1e6, 1.01 * need), 1.0, d)

    def test_insufficient_balance_raises_before_mutation(self):
        poor = MarketState(CP, 100.0, 0.1, 0.1)
        with pytest.raises(HiddenAccountError):
            execute_trade(poor, 1.0, REF_SPEC, np.random.default_rng(0))

    def test_out_of_domain_atom_fails_support(self):
        wide = PrivacySpec(-300.0, 300.0, 2.0)
        d = binary_mechanism(0.0, wide)
        assert not support_check(fresh_state(), 0.0, d)


class TestEavesdropper:
    def test_exact_on_noiseless(self):
        state = fresh_state()
        new, _ = execute_trade(state, 1.0, PrivacySpec(1.0, 1.0, 2.0))
        inferred = eavesdrop_infer(state.spot, new.spot, CP)
        assert inferred == pytest.approx(1.0, abs=1e-10)

    def test_sees_delta_plus_eta_on_noisy(self):
        state = fresh_state()
        new, rec = execute_trade(state, 1.0, REF_SPEC, np.random.default_rng(9))
        inferred = eavesdrop_infer(state.spot, new.spot, CP)
        assert inferred == pytest.approx(rec.delta + rec.eta, abs=1e-10)
        assert abs(inferred - rec.delta) > 0.1  # the true size is hidden
