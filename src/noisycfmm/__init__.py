"""Deterministic laboratory for constant function market makers that mask
trade sizes with zero-mean noise, price the fee that makes the masking
incentive-neutral, and check the personalized local differential privacy
guarantee of the masking mechanism.

The names of __all__ that this file does not import come from market, then
strategies, then harness, each imported on the first such lookup: the curve,
fee and privacy layers, which every subcommand of the CLI uses, are loaded
with the package; market and strategies load when one of their names is
first read, and harness, which loads numpy, when one of its names is."""

from importlib import import_module

from .codec import to_json
from .curve import Family, TradingCurve
from .errors import (
    ConfigError,
    DistributionShapeError,
    DomainError,
    HiddenAccountError,
    InfeasibleBiasError,
    MisalignedSupportError,
    NoisyCfmmError,
    NonZeroMeanError,
    NoSolutionError,
    OptimizationError,
    SpecViolationError,
)
from .fee import (
    FeeMethod,
    FeeQuote,
    ScalingRow,
    ScalingStudyResult,
    liquidity_scaling_study,
    noise_fee,
    noise_fee_closed_form,
)
from .privacy import (
    EPSILON_FLOOR,
    NoiseAtom,
    NoiseDistribution,
    PLDPReport,
    PrivacySpec,
    biased_binary,
    biased_factory,
    binary_mechanism,
    verify_pldp,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptivePolicy",
    "ConfigError",
    "DEFAULT_MAX_ROUNDS",
    "DistributionShapeError",
    "DomainError",
    "EPSILON_FLOOR",
    "EXPECTATIONS",
    "ExcessProfitResult",
    "ExperimentConfig",
    "Family",
    "FeeMethod",
    "FeePolicy",
    "FeePolicyKind",
    "FeeQuote",
    "HiddenAccountError",
    "InfeasibleBiasError",
    "LPNoiseProblem",
    "MarketState",
    "MisalignedSupportError",
    "NoiseAtom",
    "NoiseConfig",
    "NoiseDistribution",
    "NoiseLPSolution",
    "NoiseSolutionCheck",
    "NoisyCfmmError",
    "NonZeroMeanError",
    "NoSolutionError",
    "OptimizationError",
    "PLDPReport",
    "PrivacySpec",
    "ScalingRow",
    "ScalingStudyResult",
    "SpecViolationError",
    "StrategyConfig",
    "StrategyTrace",
    "STRATEGY_KINDS",
    "TradeRecord",
    "TradingCurve",
    "WitnessCandidate",
    "WitnessScanResult",
    "Z99",
    "biased_binary",
    "biased_factory",
    "binary_mechanism",
    "case1_deviation",
    "case2_deviation",
    "check_expectation",
    "eavesdrop_infer",
    "estimate_excess_profit",
    "execute_trade",
    "factor2_grid",
    "liquidity_scaling_study",
    "noise_chasing_strategy",
    "noise_fee",
    "noise_fee_closed_form",
    "optimize_noise_lp",
    "replica_rng",
    "reproduce_deviation_theorem",
    "run_adaptive",
    "support_check",
    "to_json",
    "trade_fee",
    "truthful_strategy",
    "validate_lp_solution",
    "verify_pldp",
]


def __getattr__(name: str):
    """An __all__ name not bound above, looked up on every access in market,
    then strategies, then harness.

    No copy is kept here, so a function replaced in its module (by a tracer or
    a test) is what the package hands out.
    """
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module in ("market", "strategies", "harness"):
        owner = import_module(f"{__name__}.{module}")
        if hasattr(owner, name):
            return getattr(owner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
