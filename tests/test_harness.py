"""Experiment harness: configs, RNG streams, estimators, scans, LP design."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisycfmm import (
    EXPECTATIONS,
    ConfigError,
    ExcessProfitResult,
    ExperimentConfig,
    FeePolicy,
    LPNoiseProblem,
    MisalignedSupportError,
    NoiseConfig,
    NoiseDistribution,
    OptimizationError,
    PrivacySpec,
    SpecViolationError,
    StrategyConfig,
    TradingCurve,
    biased_binary,
    binary_mechanism,
    check_expectation,
    estimate_excess_profit,
    factor2_grid,
    liquidity_scaling_study,
    noise_fee,
    optimize_noise_lp,
    replica_rng,
    reproduce_deviation_theorem,
    to_json,
    validate_lp_solution,
    verify_pldp,
)
from noisycfmm import harness
from noisycfmm.market import MarketState
from oracles import make_random_policy, pairwise_noise_lp, run_strategy_once

REF_SPEC = PrivacySpec(0.0, 2.0, 2.0)
HALF_WIDTH_SPREAD = 1.0 / math.tanh(1.0)  # worst |eta| under REF_SPEC


def base_config_obj() -> dict:
    return {
        "curve": {"family": "constant_product", "level": 1e4},
        "initial_x": 100.0,
        "true_price": 1.5,
        "privacy": {"tau": [0, 2], "epsilon": 2},
        "strategy": {"kind": "case1", "trade_size": 1.0},
        "replicas": 2000,
        "seed": 42,
    }


def config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json_obj(base_config_obj())
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


FINITE = st.floats(-1e6, 1e6)
POSITIVE = st.floats(1e-3, 1e6)
CURVES = st.one_of(
    st.builds(TradingCurve.constant_product, POSITIVE, x_max=st.floats(1.0, 1e12)),
    st.builds(TradingCurve.lmsr, st.floats(0.01, 1.99)),
    st.builds(TradingCurve.constant_sum, POSITIVE, POSITIVE, x_min=st.floats(1e-9, 1e-3)),
)
SPECS = st.builds(
    lambda lower, width, epsilon: PrivacySpec(lower, lower + width, epsilon),
    FINITE, st.floats(0.0, 1e3), st.one_of(POSITIVE, st.just(math.inf)),
)
STRATEGIES = st.one_of(
    st.just(StrategyConfig("truthful")),
    st.builds(StrategyConfig, st.just("noise_chasing"), max_rounds=st.integers(0, 10**4)),
    st.builds(StrategyConfig, st.just("case1"), trade_size=FINITE),
    st.builds(StrategyConfig, st.just("case2"), trade_size=FINITE, detour_price=FINITE),
    st.builds(
        StrategyConfig, st.just("adaptive_random"),
        policies=st.integers(1, 10**4), bound=st.integers(0, 10**4),
    ),
)
FEE_POLICIES = st.one_of(
    st.just(FeePolicy.noise_fee()), st.just(FeePolicy.zero()),
    st.builds(FeePolicy.fixed, FINITE), st.builds(FeePolicy.scaled, FINITE),
)
NOISES = st.one_of(st.just(NoiseConfig()), st.builds(NoiseConfig, st.just("biased_binary"), FINITE))
CONFIGS = st.builds(
    ExperimentConfig, curve=CURVES, initial_x=FINITE, true_price=FINITE, privacy=SPECS,
    strategy=STRATEGIES, fee_policy=FEE_POLICIES, noise=NOISES,
    replicas=st.integers(1, 10**7), seed=st.none() | st.integers(0, 2**64),
    hidden_x=FINITE, hidden_y=FINITE, expect=st.none() | st.sampled_from(EXPECTATIONS),
)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = config()
        again = ExperimentConfig.from_json_obj(to_json(cfg))
        assert again == cfg

    @settings(max_examples=200, deadline=None)
    @given(CONFIGS)
    def test_standard_json_round_trip(self, cfg):
        text = json.dumps(to_json(cfg), allow_nan=False)
        assert ExperimentConfig.from_json_obj(json.loads(text)) == cfg

    def test_unknown_field_named_in_error(self):
        obj = base_config_obj()
        obj["replcias"] = 100
        with pytest.raises(ConfigError, match="replcias"):
            ExperimentConfig.from_json_obj(obj)

    def test_missing_required_field(self):
        obj = base_config_obj()
        del obj["true_price"]
        with pytest.raises(ConfigError, match="true_price"):
            ExperimentConfig.from_json_obj(obj)

    def test_bool_is_not_a_number(self):
        obj = base_config_obj()
        obj["initial_x"] = True
        with pytest.raises(ConfigError, match="initial_x"):
            ExperimentConfig.from_json_obj(obj)

    def test_integer_beyond_float_range_is_a_config_error(self):
        obj = base_config_obj()
        obj["initial_x"] = 10**400
        with pytest.raises(ConfigError, match="config.initial_x must be a number in the float range"):
            ExperimentConfig.from_json_obj(obj)

    def test_bad_expectation(self):
        obj = base_config_obj()
        obj["expect"] = "ci_sideways"
        with pytest.raises(ConfigError, match="expect"):
            ExperimentConfig.from_json_obj(obj)

    def test_bad_strategy_kind(self):
        obj = base_config_obj()
        obj["strategy"] = {"kind": "martingale"}
        with pytest.raises(ConfigError, match="martingale"):
            ExperimentConfig.from_json_obj(obj)

    def test_strategy_rejects_foreign_knobs(self):
        obj = base_config_obj()
        obj["strategy"] = {"kind": "case1", "max_rounds": 5}
        with pytest.raises(ConfigError, match="max_rounds"):
            ExperimentConfig.from_json_obj(obj)

    def test_case2_needs_detour(self):
        obj = base_config_obj()
        obj["strategy"] = {"kind": "case2", "trade_size": 1.0}
        with pytest.raises(ConfigError, match="detour_price"):
            ExperimentConfig.from_json_obj(obj)

    def test_slope_only_for_constant_sum(self):
        obj = base_config_obj()
        obj["curve"] = {"family": "cp", "level": 1e4, "slope": 2.0}
        with pytest.raises(ConfigError, match="slope"):
            ExperimentConfig.from_json_obj(obj)

    def test_epsilon_inf_token(self):
        obj = base_config_obj()
        obj["privacy"] = {"tau": [0, 2], "epsilon": "inf"}
        cfg = ExperimentConfig.from_json_obj(obj)
        assert math.isinf(cfg.privacy.epsilon)

    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigError, match="'replicas' must be at least 1, got 0"):
            config(replicas=0)
        with pytest.raises(ConfigError, match="'policies' must be at least 1, got -1"):
            StrategyConfig("adaptive_random", policies=-1)
        with pytest.raises(ConfigError, match="'max_rounds' must be at least 0, got -1"):
            StrategyConfig("noise_chasing", max_rounds=-1)
        with pytest.raises(ConfigError, match="'bound' must be at least 0, got -1"):
            StrategyConfig("adaptive_random", bound=-1)
        StrategyConfig("noise_chasing", max_rounds=0)  # no rounds is a run: truthful
        StrategyConfig("adaptive_random", bound=0)

    def test_counts_have_a_ceiling(self):
        with pytest.raises(ConfigError, match=f"'replicas' must be at most 100000000, got {10**20}"):
            config(replicas=10**20)
        for name in ("policies", "max_rounds", "bound"):
            with pytest.raises(ConfigError, match=f"'{name}' must be at most"):
                StrategyConfig("adaptive_random", **{name: 10**20})
        config(replicas=10**8)  # the ceilings themselves are legal
        StrategyConfig("adaptive_random", policies=10**6, max_rounds=10**6, bound=10**6)

    def test_seed_must_not_be_negative(self):
        with pytest.raises(ConfigError, match="'seed' must be at least 0, got -1"):
            config(seed=-1)
        with pytest.raises(ConfigError, match="config.seed must be an integer"):
            ExperimentConfig.from_json_obj({**base_config_obj(), "seed": 1.5})

    def test_seed_required_for_randomized_runs(self):
        with pytest.raises(ConfigError, match="seed"):
            estimate_excess_profit(config(seed=None))


class TestRngStreams:
    def test_replica_streams_reproduce(self):
        a = replica_rng(7, 3).standard_normal(4)
        b = replica_rng(7, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_replica_streams_differ_by_index(self):
        a = replica_rng(7, 3).standard_normal(4)
        b = replica_rng(7, 4).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_policy_parameters_are_deterministic(self):
        state = MarketState(TradingCurve.constant_product(1e4), 100.0, 1e9, 1e9)
        one = make_random_policy(7, 3, REF_SPEC, 1.5)(state)
        two = make_random_policy(7, 3, REF_SPEC, 1.5)(state)
        assert one == two
        other = make_random_policy(7, 4, REF_SPEC, 1.5)(state)
        assert other != one


class TestEstimator:
    def test_truthful_has_zero_excess_and_width(self):
        result = estimate_excess_profit(config(strategy=StrategyConfig("truthful"), replicas=50))
        assert result.mean == 0.0
        assert result.std_error == 0.0
        assert result.ci99 == (0.0, 0.0)
        assert result.truthful_profit == pytest.approx(5.051025721682187, rel=1e-12)

    def test_repeat_runs_identical(self):
        a = estimate_excess_profit(config(replicas=500))
        b = estimate_excess_profit(config(replicas=500))
        assert a == b

    def test_error_shrinks_like_root_n(self):
        # the standard error must follow 1/sqrt(n) within 20 percent
        ses = {}
        for n in (1_000, 10_000, 100_000):
            ses[n] = estimate_excess_profit(config(replicas=n)).std_error
        for n in (10_000, 100_000):
            predicted = ses[1_000] * math.sqrt(1_000 / n)
            assert abs(ses[n] - predicted) <= 0.2 * predicted

    def test_adaptive_budget_split(self):
        cfg = config(
            strategy=StrategyConfig("adaptive_random", policies=10, bound=4),
            replicas=205,
        )
        result = estimate_excess_profit(cfg)
        assert result.replicas == 200  # 10 policies x 20 replicas each
        assert len(result.per_policy_means) == 10

    # per_policy on both sides of numpy's pairwise-summation block (8 and 128)
    @pytest.mark.parametrize("per_policy", [1, 7, 8, 9, 127, 128, 129, 1000])
    def test_per_policy_means_are_the_row_means(self, per_policy):
        cfg = config(
            strategy=StrategyConfig("adaptive_random", policies=3, bound=4),
            replicas=3 * per_policy,
        )
        result = estimate_excess_profit(cfg, keep_samples=True)
        rows = np.reshape(result.samples, (3, per_policy))
        assert result.per_policy_means == tuple(float(np.mean(row)) for row in rows)

    def test_keep_samples(self):
        result = estimate_excess_profit(config(replicas=50), keep_samples=True)
        assert len(result.samples) == 50
        assert np.mean(result.samples) == pytest.approx(result.mean, abs=1e-15)

    def test_unknown_kind_rejected_at_run(self):
        cfg = config(strategy=StrategyConfig("sideways"))
        with pytest.raises(ConfigError, match="sideways"):
            run_strategy_once(cfg, cfg.initial_state(), replica_rng(0, 0))
        with pytest.raises(ConfigError, match="sideways"):
            estimate_excess_profit(cfg)


class TestExpectations:
    def fake(self, lo, hi):
        return ExcessProfitResult("x", "noise_fee", (lo + hi) / 2, 0.0, (lo, hi), 1, 0.0)

    def test_truth_table(self):
        straddling = self.fake(-1.0, 1.0)
        above = self.fake(0.5, 1.0)
        below = self.fake(-1.0, -0.5)
        assert check_expectation(straddling, "ci_contains_zero")
        assert not check_expectation(above, "ci_contains_zero")
        assert check_expectation(above, "ci_above_zero")
        assert not check_expectation(straddling, "ci_above_zero")
        assert check_expectation(below, "ci_below_zero")
        assert not check_expectation(straddling, "ci_below_zero")
        assert check_expectation(below, "ci_contains_or_below_zero")
        assert check_expectation(straddling, "ci_contains_or_below_zero")
        assert not check_expectation(above, "ci_contains_or_below_zero")
        assert check_expectation(self.fake(0.0, 0.0), "ci_contains_zero")

    def test_none_means_unchecked(self):
        assert check_expectation(self.fake(-1, 1), None) is None

    def test_unknown_expectation(self):
        with pytest.raises(ConfigError):
            check_expectation(self.fake(-1, 1), "ci_diagonal")


class TestFactor2Grid:
    def test_span_and_ratio(self):
        grid = factor2_grid()
        assert grid[0] == 1e-6
        assert len(grid) == 40
        assert grid[-1] <= 1e6 < grid[-1] * 2
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(r == 2.0 for r in ratios)


class TestWitnessScan:
    def test_positive_mean_finds_witness(self):
        # the screen needs enough replicas that its CI threshold is beatable
        result = reproduce_deviation_theorem(
            "positive_mean", 0.1 * HALF_WIDTH_SPREAD, config(replicas=20_000)
        )
        assert result.found
        assert result.ci99[0] > 0.0
        assert result.true_price > 1.0
        assert result.detour_price is None
        assert any(c.note == "screened" for c in result.candidates)

    def test_negative_mean_finds_witness(self):
        result = reproduce_deviation_theorem(
            "negative_mean", -0.1 * HALF_WIDTH_SPREAD, config(replicas=20_000)
        )
        assert result.found
        assert result.ci99[0] > 0.0
        assert result.true_price < 1.0
        assert result.detour_price > 1.0

    @pytest.mark.parametrize("case", ["positive_mean", "negative_mean"])
    def test_zero_mean_control_finds_nothing(self, case):
        result = reproduce_deviation_theorem(case, 0.0, config())
        assert not result.found
        assert result.true_price is None
        assert len(result.candidates) > 0
        assert all(c.note != "screened" for c in result.candidates)

    def test_zero_noise_screen_pays_no_fee(self):
        # a point interval masks nothing: the screen charges what execute_trade does
        cfg = config(privacy=PrivacySpec(1.0, 1.0, 2.0), fee_policy=FeePolicy.fixed(5.0))
        result = reproduce_deviation_theorem("positive_mean", 0.0, cfg)
        assert {c.expected_excess for c in result.candidates if c.supported} == {0.0}

    def test_negative_mean_control_labels_domain_exits(self):
        # a trade of -1 on [-2, 0] has noise atoms -/+ 1.313; from detour 2147.48 on,
        # sqrt(1e4 / detour) - 1 - 1.313 < 0, so the lower atom leaves the curve
        cfg = config(
            privacy=PrivacySpec(-2.0, 0.0, 2.0), strategy=StrategyConfig("case1", trade_size=-1.0),
        )
        result = reproduce_deviation_theorem("negative_mean", 0.0, cfg)
        assert [(c.detour_price, c.note) for c in result.candidates] == [
            (d, "margin" if d < 2000.0 else "out of domain") for d in factor2_grid() if d > 1.0
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        lmsr=st.booleans(),
        depth=st.floats(0.0, 1.0),
        place=st.floats(0.0, 1.0),
        lower=st.floats(-1.0, 0.0),
        width=st.floats(0.01, 1.0),
        at=st.floats(0.0, 1.0),
        epsilon=st.floats(0.5, 6.0),
        tilt=st.floats(0.01, 0.99),
        price_factor=st.floats(0.25, 4.0),
    )
    def test_priced_excess_is_the_mean_times_the_price_gap(
        self, lmsr, depth, place, lower, width, at, epsilon, tilt, price_factor,
    ):
        """Priceability: under the noise fee, the one-step excess of a private-then-
        correct deviation is mu * (p_hat - P(s)), zero for every p_hat only if mu = 0."""
        # every atom here is within 2.6 of the trade, and the trade within 1 of 0
        if lmsr:  # levels 1.1 to 1.9, reserves 6 to 14 above the domain's edge
            curve = TradingCurve.lmsr(1.1 + 0.8 * depth)
            x = curve.x_lo + 6.0 + 8.0 * place
        else:  # levels 1e4 to 1e8, prices 1/10 to 10
            curve = TradingCurve.constant_product(10.0 ** (4.0 + 4.0 * depth))
            x = math.sqrt(curve.level) * 10.0 ** (place - 0.5)
        spec = PrivacySpec(lower, lower + width, epsilon)
        delta = lower + at * width
        lo, hi = (atom.eta for atom in binary_mechanism(delta, spec).atoms)
        mu = lo + tilt * (hi - lo)
        dist = biased_binary(delta, spec, mu)
        s = x + delta
        p_s = curve.spot_price(s)
        p_hat = price_factor * p_s
        fee = noise_fee(curve, x, delta, dist).gamma
        mean, _ = harness._deviation_moments(curve, x, delta, dist, fee, p_hat)
        gain = curve.reversal_gains(s)
        scale = sum(a.p * (abs(gain(a.eta)) + abs(a.eta * (p_hat - p_s))) for a in dist.atoms)
        assert abs(mean - mu * (p_hat - p_s)) <= 1e-13 * scale

    def test_sign_conventions_enforced(self):
        with pytest.raises(ConfigError):
            reproduce_deviation_theorem("positive_mean", -0.1, config())
        with pytest.raises(ConfigError):
            reproduce_deviation_theorem("negative_mean", 0.1, config())
        with pytest.raises(ConfigError):
            reproduce_deviation_theorem("both", 0.0, config())


class TestScalingStudy:
    def test_reference_rows(self):
        result = liquidity_scaling_study(1e4, (1.0, 4.0, 16.0), 1.0, 1.0, REF_SPEC)
        gammas = [r.gamma for r in result.rows]
        products = [r.fee_liquidity_product for r in result.rows]
        assert gammas == pytest.approx(
            [0.016736401229369886, 0.00849264844442162, 0.004278034823956447], rel=1e-12
        )
        assert products == pytest.approx(
            [0.8368200614684943, 0.849264844442162, 0.8556069647912895], rel=1e-12
        )
        assert result.max_relative_spread == pytest.approx(0.012287754726082336, rel=1e-9)

    def test_deep_pools_converge(self):
        shallow = liquidity_scaling_study(1e4, (1.0, 4.0, 16.0), 1.0, 1.0, REF_SPEC)
        deep = liquidity_scaling_study(1e8, (1.0, 4.0, 16.0), 1.0, 1.0, REF_SPEC)
        assert deep.max_relative_spread == pytest.approx(0.00012497843069389825, rel=1e-9)
        assert deep.max_relative_spread < shallow.max_relative_spread / 50

    @staticmethod
    def inverse_liquidity_law(base, multipliers, price, delta, spec):
        """Each row's fee * |L| against 1/2 E[eta^2] x^3 / (s (s + eta1) (s + eta2)),
        with x the reserve at the price and s = x + delta: the worst relative
        error, and each row's product over 1/2 E[eta^2]."""
        dist = binary_mechanism(delta, spec)
        half_var = 0.5 * sum(a.p * a.eta * a.eta for a in dist.atoms)
        eta1, eta2 = (a.eta for a in dist.atoms)
        worst, ratios = 0.0, []
        for row in liquidity_scaling_study(base, multipliers, price, delta, spec).rows:
            x = TradingCurve.constant_product(row.level).x_of_price(price)
            s = x + delta
            predicted = half_var * x**3 / (s * (s + eta1) * (s + eta2))
            worst = max(worst, abs(row.fee_liquidity_product - predicted) / predicted)
            ratios.append(row.fee_liquidity_product / half_var)
        return worst, ratios

    def test_products_tend_to_half_the_noise_variance(self):
        worst, ratios = self.inverse_liquidity_law(1e4, (1.0, 4.0, 16.0), 1.0, 1.0, REF_SPEC)
        assert worst <= 1e-12
        assert [round(r, 3) for r in ratios] == [0.971, 0.985, 0.993]

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.floats(1e4, 1e8), multipliers=st.lists(st.floats(1.0, 16.0), min_size=1, max_size=4),
        price=st.floats(0.1, 10.0), lower=st.floats(-2.0, 2.0), width=st.floats(0.01, 2.0),
        at=st.floats(0.0, 1.0), epsilon=st.floats(0.5, 5.0),
    )
    def test_inverse_liquidity_law_on_constant_product(
        self, base, multipliers, price, lower, width, at, epsilon
    ):
        spec = PrivacySpec(lower, lower + width, epsilon)
        delta = min(lower + at * width, spec.upper)
        worst, _ = self.inverse_liquidity_law(base, multipliers, price, delta, spec)
        assert worst <= 1e-12

    @pytest.mark.parametrize("rows", [1, 3, 7, 8, 12])
    def test_spread_against_numpy_mean(self, rows):
        # numpy sums 8 or more values in eight partial sums, the study left
        # to right: equal below 8 rows, within float rounding from 8 on
        result = liquidity_scaling_study(1e4, range(1, rows + 1), 1.0, 1.0, REF_SPEC)
        products = np.array([r.fee_liquidity_product for r in result.rows])
        center = np.mean(products)
        spread = float(np.max(np.abs(products - center)) / abs(center))
        if rows < 8:
            assert result.max_relative_spread == spread
        else:
            assert result.max_relative_spread == pytest.approx(spread, rel=1e-12, abs=0.0)

    def test_json_shape(self):
        result = liquidity_scaling_study(1e4, (1.0, 2.0), 1.0, 1.0, REF_SPEC)
        obj = to_json(result)
        assert len(obj["rows"]) == 2
        assert obj["rows"][0]["multiplier"] == 1.0


class TestNoiseLP:
    CURVE = TradingCurve.constant_product(1e4)

    def small_problem(self) -> LPNoiseProblem:
        return LPNoiseProblem.build(self.CURVE, 100.0, REF_SPEC, n_inputs=5, n_outputs=9)

    def test_grid_construction(self):
        problem = LPNoiseProblem.build(self.CURVE, 100.0, REF_SPEC)
        assert len(problem.input_grid) == 21
        assert len(problem.output_grid) == 41
        assert problem.input_grid[0] == 0.0 and problem.input_grid[-1] == 2.0
        # outputs span the two-point landmarks around the interval midpoint
        assert problem.output_grid[0] == pytest.approx(1.0 - HALF_WIDTH_SPREAD, rel=1e-15)
        assert problem.output_grid[-1] == pytest.approx(1.0 + HALF_WIDTH_SPREAD, rel=1e-15)

    def test_degenerate_is_a_point(self):
        problem = LPNoiseProblem.build(self.CURVE, 100.0, PrivacySpec(1.0, 1.0, 2.0))
        assert problem.input_grid == (1.0,)
        assert problem.output_grid == (1.0,)
        solution = optimize_noise_lp(problem)
        assert solution.average_fee == pytest.approx(0.0, abs=1e-12)

    def test_validate_rejects_offgrid_mean(self):
        bad = LPNoiseProblem(self.CURVE, 100.0, REF_SPEC, (0.0, 2.0), (0.5, 1.0))
        with pytest.raises(OptimizationError, match="zero-mean"):
            bad.validate()

    def test_validate_rejects_domain_exit(self):
        # a tiny reserve minus the lower landmark leaves the positive orthant
        with pytest.raises(OptimizationError, match="domain"):
            LPNoiseProblem.build(self.CURVE, 0.25, REF_SPEC).validate()

    def test_designed_noise_beats_two_point(self):
        solution = optimize_noise_lp(self.small_problem())
        two_point = noise_fee(self.CURVE, 100.0, 1.0, binary_mechanism(1.0, REF_SPEC)).gamma
        # the landmark pair sits on the output grid, so it is feasible here
        assert solution.fee_at(1.0) <= two_point + 1e-9
        assert solution.average_fee <= two_point + 1e-9
        assert solution.average_fee == pytest.approx(np.mean(solution.per_input_fees), rel=1e-12)

    def test_fee_at_prices_only_the_masking_interval(self):
        solution = optimize_noise_lp(self.small_problem())
        fees = solution.per_input_fees
        assert solution.fee_at(0.0) == fees[0] and solution.fee_at(2.0) == fees[-1]
        assert solution.fee_at(0.9) == fees[2]  # the nearest input is 1.0
        for delta in (-1e-12, 2.0 + 1e-12, 50.0, -math.inf, math.nan):
            with pytest.raises(SpecViolationError, match="outside masking interval"):
                solution.fee_at(delta)

    def test_solution_validates(self):
        check = validate_lp_solution(optimize_noise_lp(self.small_problem()))
        assert check.ok
        assert check.max_zero_mean_violation <= 1e-8
        assert check.pldp.satisfied

    def test_solver_is_looked_up_at_call_time(self, monkeypatch):
        # the benchmark tracer times and counts solves by wrapping harness.linprog
        expected = optimize_noise_lp(self.small_problem())
        original, calls = harness.linprog, []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "linprog", counting)
        assert optimize_noise_lp(self.small_problem()) == expected
        assert len(calls) == 1

    def test_ratio_rows_are_one_envelope_per_output(self, monkeypatch):
        # 2*m*n rows over the m*n probabilities and the n envelopes
        expected = optimize_noise_lp(self.small_problem())
        original, shapes = harness.linprog, []

        def checking(*args, **kwargs):
            shapes.append(kwargs["A_ub"].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "linprog", checking)
        assert optimize_noise_lp(self.small_problem()) == expected
        assert shapes == [(2 * 5 * 9, 5 * 9 + 9)]

    @pytest.mark.parametrize("eps", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("m,n", [(5, 9), (11, 21)])
    @pytest.mark.parametrize("level,tau", [(1e4, (0.0, 2.0)), (1e3, (-1.0, 0.5))])
    def test_matches_the_pairwise_form(self, level, tau, m, n, eps):
        problem = LPNoiseProblem.build(
            TradingCurve.constant_product(level), 100.0, PrivacySpec(*tau, eps),
            n_inputs=m, n_outputs=n,
        )
        solution, reference = optimize_noise_lp(problem), pairwise_noise_lp(problem)
        assert solution.outputs_used == reference.outputs_used
        assert solution.per_input_fees == pytest.approx(reference.per_input_fees, rel=1e-9, abs=0)

    def test_design_failing_its_check_raises(self, monkeypatch):
        # move 1e-4 of input 0's mass from its lowest to its highest output
        original, n = harness.linprog, 9

        def off_center(*args, **kwargs):
            res = original(*args, **kwargs)
            x = res.x.copy()
            used = np.flatnonzero(x[:n] > 1e-3)
            x[used[0]] -= 1e-4
            x[used[-1]] += 1e-4
            res.x = x
            return res

        monkeypatch.setattr(harness, "linprog", off_center)
        with pytest.raises(OptimizationError, match="fails its check: zero-mean violation"):
            optimize_noise_lp(self.small_problem())

    @pytest.mark.parametrize("inputs", [(0.0, 0.5, 2.0), (0.0, 0.25, 1.0, 1.5, 2.0)])
    def test_hand_built_inputs_are_checked_on_their_own(self, inputs):
        # uneven inputs are no linspace: the check reads the design's own rows
        outputs = self.small_problem().output_grid
        solution = optimize_noise_lp(LPNoiseProblem(self.CURVE, 100.0, REF_SPEC, inputs, outputs))
        check = validate_lp_solution(solution)
        assert check.ok
        assert check.pldp.grid_size == len(inputs)

    @staticmethod
    def grid_report(solution):
        """verify_pldp on the design's grid, each input looked up exactly."""
        p = solution.problem
        noise = dict(zip(p.input_grid, solution.distributions))
        return verify_pldp(noise.__getitem__, p.spec, len(p.input_grid), ratio_slack=1e-8)

    @pytest.mark.parametrize("m,n", [(5, 9), (21, 41)])
    @pytest.mark.parametrize("eps", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("curve", [
        TradingCurve.constant_product(1e4), TradingCurve.constant_product(1e3),
        TradingCurve.lmsr(1.5), TradingCurve.constant_sum(1e4, 1.5),
    ], ids=["cp1e4", "cp1e3", "lmsr", "csum"])
    def test_check_matches_the_grid_check(self, curve, eps, m, n):
        problem = LPNoiseProblem.build(curve, 100.0, PrivacySpec(0.0, 2.0, eps), m, n)
        solution = optimize_noise_lp(problem)
        assert validate_lp_solution(solution).pldp == self.grid_report(solution)

    @pytest.mark.parametrize("tau", [(0.0, 1e-300), (0.0, 5e-10)])
    def test_check_matches_the_grid_check_on_narrow_intervals(self, tau):
        # the match tolerance scales with the width, so these designs check out
        problem = LPNoiseProblem.build(self.CURVE, 100.0, PrivacySpec(*tau, 2.0), 21, 41)
        solution = optimize_noise_lp(problem)
        assert validate_lp_solution(solution).pldp == self.grid_report(solution)

    @pytest.mark.parametrize("epsilon", [0.5, 2.0])
    def test_a_narrow_interval_gets_zero_means_in_widths(self, epsilon):
        # mean rows in units of the width: the LP returns the two-point
        # mechanism, where rows of coefficients near 1e-10 let it send every
        # input to one output, off zero by about the width itself
        spec = PrivacySpec(0.0, 5e-10, epsilon)
        solution = optimize_noise_lp(LPNoiseProblem.build(self.CURVE, 100.0, spec, 21, 41))
        check = validate_lp_solution(solution)
        assert check.ok and len(solution.outputs_used) == 2
        assert check.max_zero_mean_violation <= 1e-15 * spec.width

    def test_a_design_off_zero_by_a_share_of_the_width_fails_its_check(self):
        spec = PrivacySpec(0.0, 5e-10, 2.0)
        solution = optimize_noise_lp(LPNoiseProblem.build(self.CURVE, 100.0, spec, 21, 41))
        off = 2e-8 * spec.width  # twice the slack, far below the absolute 1e-8
        shifted = tuple(
            NoiseDistribution(tuple(dataclasses.replace(a, eta=a.eta + off) for a in d.atoms))
            for d in solution.distributions
        )
        check = validate_lp_solution(dataclasses.replace(solution, distributions=shifted))
        assert check.pldp.satisfied and not check.ok

    def test_a_narrow_interval_the_grid_cannot_center_is_refused(self):
        # at 100 the grid points sit on ulps of 1.4e-14, a 0.14 % share of this
        # width, so no design on them has zero means in widths and a ratio
        # within e^eps; the LP reports that rather than a design off by 0.87 widths
        spec = PrivacySpec(100.0, 100.0 + 1e-11, 2.0)
        with pytest.raises(OptimizationError, match="infeasible"):
            optimize_noise_lp(LPNoiseProblem.build(self.CURVE, 100.0, spec, 21, 41))

    def test_check_raises_what_the_grid_check_raises(self, monkeypatch):
        # outputs 1e-12 / (40 tanh(1)) apart at 100 sit within four ulps of each other
        spec = PrivacySpec(100.0, 100.0 + 1e-12, 2.0)
        problem = LPNoiseProblem.build(self.CURVE, 100.0, spec, 21, 41)
        original, designs = harness.validate_lp_solution, []

        def recording(solution):
            designs.append(solution)
            return original(solution)

        monkeypatch.setattr(harness, "validate_lp_solution", recording)
        with pytest.raises(MisalignedSupportError) as got:
            optimize_noise_lp(problem)
        with pytest.raises(MisalignedSupportError) as want:
            self.grid_report(designs[0])
        assert str(got.value) == str(want.value)
