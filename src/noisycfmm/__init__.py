"""Deterministic laboratory for constant function market makers that mask
trade sizes with zero-mean noise, price the fee that makes the masking
incentive-neutral, and check the personalized local differential privacy
guarantee of the masking mechanism.

The names of __all__ that this file does not import come from harness, which
is imported on the first such lookup: harness loads numpy, and the fee,
privacy and market layers run without it."""

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
from .market import (
    FeePolicy,
    FeePolicyKind,
    MarketState,
    TradeRecord,
    eavesdrop_infer,
    execute_trade,
    support_check,
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
from .strategies import (
    DEFAULT_MAX_ROUNDS,
    AdaptivePolicy,
    ExternalFlow,
    StrategyTrace,
    case1_deviation,
    case2_deviation,
    noise_chasing_strategy,
    run_adaptive,
    truthful_strategy,
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
    "ExternalFlow",
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
    "make_random_policy",
    "noise_chasing_strategy",
    "noise_fee",
    "noise_fee_closed_form",
    "optimize_noise_lp",
    "policy_rng",
    "replica_rng",
    "reproduce_deviation_theorem",
    "run_adaptive",
    "run_strategy_once",
    "support_check",
    "to_json",
    "truthful_strategy",
    "validate_lp_solution",
    "verify_pldp",
]


def __getattr__(name: str):
    """An __all__ name not bound above, looked up in harness on every access.

    No copy is kept here, so a function replaced in harness (by a tracer or a
    test) is what the package hands out.
    """
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import harness

    return getattr(harness, name)
