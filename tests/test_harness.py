"""Experiment harness: configs, RNG streams, estimators, scans, LP design."""

import dataclasses
import math

import numpy as np
import pytest

from noisycfmm import (
    ConfigError,
    ExcessProfitResult,
    ExperimentConfig,
    LPNoiseProblem,
    OptimizationError,
    PrivacySpec,
    StrategyConfig,
    TradingCurve,
    Z99,
    binary_mechanism,
    check_expectation,
    estimate_excess_profit,
    factor2_grid,
    liquidity_scaling_study,
    make_random_policy,
    noise_fee,
    optimize_noise_lp,
    replica_rng,
    reproduce_deviation_theorem,
    run_strategy_once,
    validate_lp_solution,
)
from noisycfmm.market import MarketState

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


class TestConfigParsing:
    def test_round_trip(self):
        cfg = config()
        again = ExperimentConfig.from_json_obj(cfg.to_json_obj())
        assert again == cfg

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
        assert check_expectation(below, "ci_below_zero")
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

    def test_json_shape(self):
        result = liquidity_scaling_study(1e4, (1.0, 2.0), 1.0, 1.0, REF_SPEC)
        obj = result.to_json_obj()
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

    def test_solution_validates(self):
        check = validate_lp_solution(optimize_noise_lp(self.small_problem()))
        assert check.ok
        assert check.max_zero_mean_violation <= 1e-8
        assert check.pldp.satisfied

    def test_mechanism_rejects_offgrid_query(self):
        solution = optimize_noise_lp(self.small_problem())
        with pytest.raises(ValueError, match="grid"):
            solution.mechanism()(0.123456)
