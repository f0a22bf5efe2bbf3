"""Acceptance gate: every shipped claim checked end to end, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines. The nine checks cover golden fee quotes, closed-form and
generic pricing agreement, the masking mechanism's statistical guarantees,
the truthfulness and witness-scan Monte Carlo experiments, the fee/liquidity
scaling law, the LP noise designer, the eavesdropper demo, and byte-identical
reruns of every CLI command.
"""

import dataclasses
import json
import math
import time

import numpy as np

from noisycfmm import (
    ExperimentConfig,
    FeePolicy,
    LPNoiseProblem,
    NoiseDistribution,
    PrivacySpec,
    StrategyConfig,
    TradingCurve,
    binary_mechanism,
    check_expectation,
    cli,
    estimate_excess_profit,
    liquidity_scaling_study,
    noise_fee,
    noise_fee_closed_form,
    optimize_noise_lp,
    reproduce_deviation_theorem,
    validate_lp_solution,
    verify_pldp,
)

CP = TradingCurve.constant_product(1e4)
REF_SPEC = PrivacySpec(0.0, 2.0, 2.0)
NOISE_SPREAD = 1.0 / math.tanh(1.0)  # |eta| of both atoms for a REF_SPEC trade

# published three-figure values and their higher-precision transcriptions
SHALLOW_ROUNDED, SHALLOW_QUOTED = 1.67e-2, 1.6735e-2
DEEP_ROUNDED, DEEP_QUOTED = 0.849e-2, 0.8492e-2


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


def brute_force_fee(curve: TradingCurve, x: float, delta: float, dist: NoiseDistribution) -> float:
    """Independent oracle: probability-weighted cost of undoing each noise atom."""
    s = x + delta
    total = 0.0
    for atom in dist.atoms:
        undo_y = curve.y_of_x(s + atom.eta) - curve.y_of_x(s)
        total += atom.p * (undo_y + atom.eta * curve.spot_price(s))
    return total


def cli_json(capsys, argv: list[str]) -> tuple[int, dict, str]:
    code = cli.main(argv + ["--output", "json"])
    out = capsys.readouterr().out
    doc, _, _ = out.rpartition("}\n")
    return code, json.loads(doc + "}\n"), out


def experiment(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        curve=CP,
        initial_x=100.0,
        true_price=1.5,
        privacy=REF_SPEC,
        strategy=StrategyConfig("noise_chasing", max_rounds=8),
        replicas=100_000,
        seed=42,
    )
    return dataclasses.replace(base, **overrides)


def test_01_golden_fee_quotes(capsys):
    quotes = {}
    for name, level, x in (("shallow", "10000", "100"), ("deep", "40000", "200")):
        code, payload, _ = cli_json(capsys, [
            "quote-fee", "--curve", "cp", "--level", level, "--x", x,
            "--delta", "1", "--tau", "0,2", "--epsilon", "2",
        ])
        assert code == 0
        quotes[name] = payload["gamma"]

    dist = binary_mechanism(1.0, REF_SPEC)
    oracle = {
        "shallow": brute_force_fee(CP, 100.0, 1.0, dist),
        "deep": brute_force_fee(TradingCurve.constant_product(4e4), 200.0, 1.0, dist),
    }
    checks = [
        abs(quotes["shallow"] / oracle["shallow"] - 1.0) < 1e-9,
        abs(quotes["deep"] / oracle["deep"] - 1.0) < 1e-9,
        abs(quotes["shallow"] / SHALLOW_ROUNDED - 1.0) < 0.01,
        abs(quotes["deep"] / DEEP_ROUNDED - 1.0) < 0.01,
        # the four-to-five digit quotes carry their own rounding error
        abs(quotes["shallow"] / SHALLOW_QUOTED - 1.0) < 1e-3,
        abs(quotes["deep"] / DEEP_QUOTED - 1.0) < 1e-3,
    ]
    report(
        1, "golden fee quotes", all(checks),
        f"shallow {quotes['shallow']:.6e} deep {quotes['deep']:.6e}, "
        f"oracle agreement 1e-9, rounded figures 1%",
    )


def test_02_closed_form_agreement():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 10_000:
        level = rng.uniform(1e3, 1e7)
        x = rng.uniform(5.0, 500.0)
        width = rng.uniform(1e-3, 0.2) * x
        lo = rng.uniform(-0.5, 0.5) * width
        spec = PrivacySpec(lo, lo + width, rng.uniform(0.2, 8.0))
        delta = rng.uniform(spec.lower, spec.upper)
        curve = TradingCurve.constant_product(level)
        dist = binary_mechanism(delta, spec)
        s = x + delta
        if not all(curve.contains(s + atom.eta) for atom in dist.atoms):
            continue  # redraw: noise would leave the curve domain
        generic = noise_fee(curve, x, delta, dist).gamma
        closed = noise_fee_closed_form(level, x, delta, dist).gamma
        if generic != 0.0:
            worst = max(worst, abs(closed / generic - 1.0))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(
        2, "closed form agreement", ok,
        f"10^4 instances, worst relative gap {worst:.3e}, {elapsed:.2f}s",
    )


def test_03_mechanism_guarantees():
    rng = np.random.default_rng(7)
    worst_mean = 0.0
    worst_ratio_gap = 0.0
    for _ in range(1_000):
        lo = rng.uniform(-5.0, 5.0)
        width = rng.uniform(1e-3, 4.0)
        eps = rng.uniform(0.1, 8.0)
        spec = PrivacySpec(lo, lo + width, eps)
        for delta in (spec.lower, spec.midpoint, spec.upper, rng.uniform(lo, lo + width)):
            worst_mean = max(worst_mean, abs(binary_mechanism(delta, spec).mean()))
        pldp = verify_pldp(lambda v: binary_mechanism(v, spec), spec, grid_size=21)
        assert pldp.satisfied
        worst_ratio_gap = max(worst_ratio_gap, abs(pldp.max_ratio - pldp.bound) / pldp.bound)
    ok = worst_mean < 1e-12 and worst_ratio_gap < 1e-6
    report(
        3, "mechanism guarantees", ok,
        f"10^3 specs, worst |mean| {worst_mean:.2e}, "
        f"worst ratio slack {worst_ratio_gap:.2e} (tight at endpoints)",
    )


def test_04_priced_noise_is_truthful():
    t0 = time.perf_counter()
    arms = {
        "chasing": (experiment(), "ci_contains_or_below_zero"),
        "case1": (
            experiment(strategy=StrategyConfig("case1", trade_size=1.0)),
            "ci_contains_or_below_zero",
        ),
        "case2": (
            experiment(
                strategy=StrategyConfig("case2", trade_size=-1.0, detour_price=2.0),
                true_price=0.5,
                privacy=PrivacySpec(-2.0, 0.0, 2.0),
            ),
            "ci_contains_or_below_zero",
        ),
        "adaptive": (
            experiment(strategy=StrategyConfig("adaptive_random", policies=100, bound=8)),
            "ci_contains_or_below_zero",
        ),
        "unpriced": (experiment(fee_policy=FeePolicy.zero()), "ci_above_zero"),
    }
    details = []
    ok = True
    for name, (config, expectation) in arms.items():
        result = estimate_excess_profit(config)
        good = check_expectation(result, expectation)
        ok = ok and good
        lo, hi = result.ci99
        details.append(f"{name} [{lo:+.2e},{hi:+.2e}]{'' if good else ' BAD'}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(4, "priced noise is truthful", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_05_biased_noise_witnesses():
    t0 = time.perf_counter()
    base = experiment(strategy=StrategyConfig("case1", trade_size=1.0), replicas=20_000)
    up = reproduce_deviation_theorem("positive_mean", 0.1 * NOISE_SPREAD, base)
    down = reproduce_deviation_theorem("negative_mean", -0.1 * NOISE_SPREAD, base)
    elapsed = time.perf_counter() - t0
    ok = (
        up.found and up.ci99[0] > 0.0
        and down.found and down.ci99[0] > 0.0
        and elapsed < 300.0
    )
    report(
        5, "biased noise witnesses", ok,
        f"+mean at price {up.true_price!r} CI99 low {up.ci99[0]:.2e}; "
        f"-mean at price {down.true_price!r} via detour {down.detour_price!r} "
        f"CI99 low {down.ci99[0]:.2e}; {elapsed:.0f}s",
    )


def test_06_fee_liquidity_scaling():
    shallow = liquidity_scaling_study(1e4, (1.0, 4.0, 16.0), 1.0, 1.0, REF_SPEC)
    deep = liquidity_scaling_study(1e8, (1.0, 4.0, 16.0), 1.0, 1.0, REF_SPEC)
    ratio = shallow.rows[1].gamma / shallow.rows[0].gamma  # doubled liquidity
    ok = (
        shallow.max_relative_spread <= 0.02
        and deep.max_relative_spread <= 0.001
        and abs(ratio - 0.5075) <= 0.003
    )
    report(
        6, "fee scales with inverse liquidity", ok,
        f"product spread {shallow.max_relative_spread:.2%} shallow / "
        f"{deep.max_relative_spread:.4%} deep, doubled-liquidity fee ratio {ratio:.4f}",
    )


def test_07_lp_noise_design():
    t0 = time.perf_counter()
    problem = LPNoiseProblem.build(CP, 100.0, REF_SPEC, n_inputs=21, n_outputs=41)
    solution = optimize_noise_lp(problem)
    elapsed = time.perf_counter() - t0
    two_point = noise_fee(CP, 100.0, 1.0, binary_mechanism(1.0, REF_SPEC)).gamma
    checkup = validate_lp_solution(solution)
    ok = (
        solution.fee_at(1.0) <= two_point + 1e-9
        and checkup.ok
        and elapsed < 10.0
    )
    report(
        7, "lp noise design", ok,
        f"fee at midpoint {solution.fee_at(1.0):.6e} <= two-point {two_point:.6e}, "
        f"zero-mean {checkup.max_zero_mean_violation:.1e}, "
        f"ratio ok {checkup.pldp.satisfied}, {elapsed:.1f}s",
    )


def test_08_eavesdropper_demo(capsys):
    code, payload, _ = cli_json(capsys, [
        "attack-demo", "--curve", "cp", "--level", "10000", "--x", "100",
        "--delta", "1", "--tau", "0,2", "--epsilon", "2", "--seed", "3",
    ])
    noiseless_gap = abs(payload["noiseless_inferred"] - 1.0)
    noisy_gap = abs(payload["noisy_inferred"] - (1.0 + payload["eta"]))
    ok = code == 0 and noiseless_gap < 1e-10 and noisy_gap < 1e-10
    report(
        8, "eavesdropper demo", ok,
        f"bare inference off by {noiseless_gap:.1e}, "
        f"masked recovers trade+noise to {noisy_gap:.1e}, eta {payload['eta']:+.4f}",
    )


def test_09_byte_identical_reruns(capsys, tmp_path):
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({
        "curve": {"family": "cp", "level": 1e4},
        "initial_x": 100.0,
        "true_price": 1.5,
        "privacy": {"tau": [0, 2], "epsilon": 2},
        "strategy": {"kind": "noise_chasing", "max_rounds": 3},
        "replicas": 50,
        "seed": 11,
    }))
    lp = tmp_path / "lp.json"
    lp.write_text(json.dumps({
        "curve": {"family": "cp", "level": 1e4},
        "reference_x": 100.0,
        "privacy": {"tau": [0, 2], "epsilon": 2},
        "n_inputs": 5,
        "n_outputs": 9,
    }))
    scale = tmp_path / "scale.json"
    scale.write_text(json.dumps({
        "base_level": 1e4,
        "multipliers": [1.0, 4.0, 16.0],
        "price": 1.0,
        "trade_size": 1.0,
        "privacy": {"tau": [0, 2], "epsilon": 2},
    }))
    commands = {
        "quote-fee": ["quote-fee", "--curve", "cp", "--level", "10000", "--x", "100",
                      "--delta", "1", "--tau", "0,2", "--epsilon", "2"],
        "attack-demo": ["attack-demo", "--curve", "cp", "--level", "10000", "--x", "100",
                        "--delta", "1", "--tau", "0,2", "--epsilon", "2", "--seed", "3"],
        "simulate": ["simulate", "--config", str(sim)],
        "optimize-noise": ["optimize-noise", "--config", str(lp)],
        "verify-pldp": ["verify-pldp", "--tau", "0,2", "--epsilon", "2"],
        "scaling-study": ["scaling-study", "--config", str(scale)],
    }
    unstable = []
    for name, argv in commands.items():
        cli.main(argv + ["--output", "json"])
        first = capsys.readouterr().out
        cli.main(argv + ["--output", "json"])
        second = capsys.readouterr().out
        if first != second or not first:
            unstable.append(name)
    report(
        9, "byte identical reruns", not unstable,
        "all six commands stable" if not unstable else f"unstable: {unstable}",
    )
