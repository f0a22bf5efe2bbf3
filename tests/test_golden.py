"""Golden Monte Carlo results: the five acceptance arms, an LMSR chase and both witness scans.

The expected values in golden_mc.json were recorded from the per-strategy
replica loops that estimate_excess_profit and the witness scan's confirmation
pass each kept before they shared one loop; the LMSR chase, whose curve
queries go through scalar math calls, from the batched engine. Every replica
draws the same stream, so any change to the replica loop, the trade counter
the adaptive policies read, or the confirmation path must reproduce them bit
for bit.
The acceptance configs run here at small replica counts; the scans use a
larger bias than test_05 so that both reach the Monte Carlo confirmation.
The candidate lists pin the screen of scans that confirm nothing: the
zero-mean controls, a curve whose x_min cuts the scan off, and a hidden
account too small to fund the detour's noise.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from noisycfmm import (
    ExperimentConfig,
    FeePolicy,
    PrivacySpec,
    StrategyConfig,
    TradingCurve,
    estimate_excess_profit,
    reproduce_deviation_theorem,
    to_json,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_mc.json").read_text())
CP = TradingCurve.constant_product(1e4)
REF_SPEC = PrivacySpec(0.0, 2.0, 2.0)
NOISE_SPREAD = 1.0 / math.tanh(1.0)


def experiment(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        curve=CP,
        initial_x=100.0,
        true_price=1.5,
        privacy=REF_SPEC,
        strategy=StrategyConfig("noise_chasing", max_rounds=8),
        replicas=400,
        seed=42,
    )
    return dataclasses.replace(base, **overrides)


ARMS = {
    "chasing": experiment(),
    "case1": experiment(strategy=StrategyConfig("case1", trade_size=1.0)),
    "case2": experiment(
        strategy=StrategyConfig("case2", trade_size=-1.0, detour_price=2.0),
        true_price=0.5,
        privacy=PrivacySpec(-2.0, 0.0, 2.0),
    ),
    "adaptive": experiment(strategy=StrategyConfig("adaptive_random", policies=100, bound=8)),
    "unpriced": experiment(fee_policy=FeePolicy.zero()),
    # an LMSR chase: its curve queries go through the scalar math calls
    "lmsr_chasing": experiment(
        curve=TradingCurve.lmsr(1.5), initial_x=50.0, true_price=0.8,
        privacy=PrivacySpec(0.0, 0.5, 2.0),
    ),
}


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_acceptance_arm_is_bit_identical(arm):
    result = estimate_excess_profit(ARMS[arm])
    got = {
        "mean": result.mean,
        "std_error": result.std_error,
        "ci99": list(result.ci99),
        "per_policy_means": (
            None if result.per_policy_means is None else list(result.per_policy_means)
        ),
    }
    assert got == GOLDEN["arms"][arm]


@pytest.mark.parametrize("case, sign", [("positive_mean", 1.0), ("negative_mean", -1.0)])
def test_witness_scan_is_bit_identical(case, sign):
    base = experiment(strategy=StrategyConfig("case1", trade_size=1.0), replicas=2000)
    scan = reproduce_deviation_theorem(case, sign * 0.2 * NOISE_SPREAD, base)
    assert scan.found  # the confirmation pass ran
    assert to_json(scan) == GOLDEN["scans"][case]


SCAN_BASE = experiment(strategy=StrategyConfig("case1", trade_size=1.0), replicas=2000)
NARROW = dataclasses.replace(SCAN_BASE, curve=TradingCurve.constant_product(1e4, x_min=90.0))
CANDIDATE_SCANS = {
    "control_positive_mean": ("positive_mean", 0.0, SCAN_BASE),
    "control_negative_mean": ("negative_mean", 0.0, SCAN_BASE),
    "x_min_positive_mean": ("positive_mean", 0.1 * NOISE_SPREAD, NARROW),
    "x_min_negative_mean": ("negative_mean", -0.1 * NOISE_SPREAD, NARROW),
    "starved_negative_mean": (
        "negative_mean", -0.2 * NOISE_SPREAD,
        dataclasses.replace(SCAN_BASE, hidden_x=0.5, hidden_y=0.5),
    ),
}


@pytest.mark.parametrize("name", sorted(CANDIDATE_SCANS))
def test_witness_candidates_are_bit_identical(name):
    case, mu, config = CANDIDATE_SCANS[name]
    assert to_json(reproduce_deviation_theorem(case, mu, config)) == GOLDEN["candidate_lists"][name]
