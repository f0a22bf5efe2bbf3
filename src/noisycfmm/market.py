"""The noisy market maker: reserves, hidden account, trades.

One accepted trade runs through these stages: validate the trade against its
privacy spec; price the noise, check that the hidden account can fund its
worst-case atom, and charge the fee (trade_fee); pay the trader out of the
visible reserves at the pre-noise state; draw the noise and execute it
against the operator's hidden account. States are immutable; execute_trade
returns the successor state plus a record of the trade, its fee and its
noise, so a rejected trade cannot leave anything half-applied.

The eavesdropper model: an adversary who sees spot prices before and after
a trade recovers the reserve change exactly by inverting the price curve.
Without noise that change is the trade itself; with noise it is trade plus
noise, which is the whole point.

Records and states stay in memory; the CLI is the one place that writes output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from .codec import number, parse_kind
from .curve import TradingCurve
from .errors import HiddenAccountError, SpecViolationError
from .fee import noise_fee
from .privacy import NoiseDistribution, PrivacySpec, binary_mechanism

if TYPE_CHECKING:
    import numpy as np

DistFactory = Callable[[float, PrivacySpec], NoiseDistribution]


class FeePolicyKind(enum.Enum):
    NOISE_FEE = "noise_fee"
    ZERO = "zero"
    FIXED = "fixed"
    SCALED = "scaled"


@dataclass(frozen=True, slots=True)
class FeePolicy:
    """What the market actually charges relative to the quoted noise fee.

    NOISE_FEE charges the quote itself; ZERO, FIXED and SCALED exist to run
    counterfactual experiments (undercharging, flat fees, overcharging).
    Whatever the policy, a trade with zero noise pays nothing: the fee prices
    noise, and there is none to price.
    """

    kind: FeePolicyKind
    value: float = 0.0

    @classmethod
    def noise_fee(cls) -> "FeePolicy":
        return cls(FeePolicyKind.NOISE_FEE)

    @classmethod
    def zero(cls) -> "FeePolicy":
        return cls(FeePolicyKind.ZERO)

    @classmethod
    def fixed(cls, value: float) -> "FeePolicy":
        return cls(FeePolicyKind.FIXED, value)

    @classmethod
    def scaled(cls, multiplier: float) -> "FeePolicy":
        return cls(FeePolicyKind.SCALED, multiplier)

    def charge(self, quoted_gamma: float) -> float:
        if self.kind is FeePolicyKind.NOISE_FEE:
            return quoted_gamma
        if self.kind is FeePolicyKind.ZERO:
            return 0.0
        if self.kind is FeePolicyKind.FIXED:
            return self.value
        return self.value * quoted_gamma

    def _json_shape(self) -> dict:
        """The policy, plus its value under the name the policy gives it, if any."""
        return {"policy": self.kind, **{k: self.value for k in _FEE_POLICIES[self.kind.value]}}


NOISE_FEE_POLICY = FeePolicy.noise_fee()

# The value field each policy takes: parse_fee_policy reads it, _json_shape writes it.
_FEE_POLICIES = {
    "noise_fee": {}, "zero": {}, "fixed": {"value": number}, "scaled": {"multiplier": number},
}


def parse_fee_policy(obj: dict, where: str = "fee_policy") -> FeePolicy:
    fields = parse_kind(obj, "policy", _FEE_POLICIES, ("value", "multiplier"), where)
    return FeePolicy(FeePolicyKind(fields.pop("policy")), *fields.values())


@dataclass(frozen=True, slots=True)
class TradeRecord:
    delta: float
    spec: PrivacySpec
    y_out: float  # Y paid to the trader; negative when the trader pays Y in
    gamma: float
    eta: float
    pre_x: float
    post_x: float


@dataclass(frozen=True, slots=True)
class MarketState:
    """Immutable snapshot: visible reserves, hidden account, trade count."""

    curve: TradingCurve
    x: float
    hidden_x: float
    hidden_y: float
    trades: int = 0

    @property
    def spot(self) -> float:
        return self.curve.spot_price(self.x)


def support_check(state: MarketState, delta: float, dist: NoiseDistribution) -> bool:
    """Can the hidden account fund every atom of the noise for this trade?

    A positive noise trade sells eta units of X to the visible reserves, so
    the hidden account needs that much X; a negative one buys X back for
    Y(s+eta) - Y(s) units of Y. The check is worst-case over all atoms since
    the draw happens after acceptance. Atoms whose noised reserve would leave
    the curve domain are unsupportable by definition.
    """
    s = state.x + delta
    if not state.curve.contains(s):
        return False
    y_s = state.curve.y_of_x(s)
    for atom in dist.atoms:
        eta = atom.eta
        if not state.curve.contains(s + eta):
            return False
        if eta > 0.0 and state.hidden_x < eta:
            return False
        if eta < 0.0 and state.hidden_y < state.curve.y_of_x(s + eta) - y_s:
            return False
    return True


def trade_fee(
    state: MarketState, delta: float, dist: NoiseDistribution, fee_policy: FeePolicy
) -> float:
    """execute_trade's fee: noise_fee prices dist (DomainError off the curve), the hidden
    account must fund every atom (HiddenAccountError), fee_policy charges; no noise, no fee."""
    quote = noise_fee(state.curve, state.x, delta, dist)
    if not support_check(state, delta, dist):
        raise HiddenAccountError(
            f"hidden account (x={state.hidden_x}, y={state.hidden_y}) cannot support "
            f"the worst-case noise for trade {delta}"
        )
    return 0.0 if dist.is_zero_noise else fee_policy.charge(quote.gamma)


def execute_trade(
    state: MarketState,
    delta: float,
    spec: PrivacySpec,
    rng: np.random.Generator | None = None,
    *,
    dist_factory: DistFactory = binary_mechanism,
    fee_policy: FeePolicy = NOISE_FEE_POLICY,
) -> tuple[MarketState, TradeRecord]:
    """Run one trade through the mechanism; returns (successor state, record).

    The trader sells ``delta`` units of X (buys, when negative), is paid at
    the pre-noise state, and pays the privacy fee the record keeps. The noise
    is then drawn and executed against the hidden account, so the successor's
    visible reserve is x + delta + eta. Raises without any state change when
    the trade violates its masking interval, exits the curve domain, or is
    unsupportable by the hidden account.
    """
    if not spec.contains(delta):
        raise SpecViolationError(
            f"trade {delta} outside masking interval [{spec.lower}, {spec.upper}]"
        )
    dist = dist_factory(delta, spec)
    gamma = trade_fee(state, delta, dist, fee_policy)
    eta = dist.sample(rng)

    s = state.x + delta
    y_pre = state.curve.y_of_x(state.x)
    y_s = state.curve.y_of_x(s)
    post_x = s + eta
    y_post = state.curve.y_of_x(post_x)

    record = TradeRecord(
        delta=delta,
        spec=spec,
        y_out=y_pre - y_s,
        gamma=gamma,
        eta=eta,
        pre_x=state.x,
        post_x=post_x,
    )
    new_state = replace(
        state,
        x=post_x,
        hidden_x=state.hidden_x - eta,
        hidden_y=state.hidden_y + (y_s - y_post),
        trades=state.trades + 1,
    )
    return new_state, record


def eavesdrop_infer(pre_price: float, post_price: float, curve: TradingCurve) -> float:
    """Reserve change recovered from two spot-price observations."""
    return curve.x_of_price(post_price) - curve.x_of_price(pre_price)
