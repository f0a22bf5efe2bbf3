"""Pricing the noise: the privacy fee that neutralizes reversal arbitrage.

A noise trade eta executed at post-trade reserves s moves the market off the
price an informed counterparty just saw, and reversing it is worth

    integral over a in [s + eta, s] of (P(a) - P(s)) da

to whoever trades next. The privacy fee charges the expectation of that value
under the noise distribution, evaluated at the post-trade state. Each atom's
integral is TradingCurve.reversal_gain(s, eta), the per-family analytic
expansion of

    Y(s + eta) - Y(s) + eta * P(s),

so the engine below never numerically integrates and never subtracts nearly
equal reserve values; quadrature appears only in tests as an independent
oracle. For the constant-product family and two-atom zero-mean noise there is
also a one-line closed form used to cross-check the generic engine.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .curve import TradingCurve
from .errors import DistributionShapeError, DomainError, NonZeroMeanError
from .privacy import NoiseDistribution

# |mean| below this (relative to atom scale) counts as zero-mean.
ZERO_MEAN_TOL = 1e-12


class FeeMethod(enum.Enum):
    GENERIC = "generic"
    CLOSED_FORM = "closed_form"


@dataclass(frozen=True, slots=True)
class FeeQuote:
    """A priced noise trade: the fee plus everything it was computed from."""

    gamma: float
    state_x: float
    delta: float
    distribution: NoiseDistribution
    method: FeeMethod


def noise_fee(
    curve: TradingCurve, state_x: float, delta: float, dist: NoiseDistribution
) -> FeeQuote:
    """Expected reversal-arbitrage value of the noise, at post-trade reserves.

    Works for any curve family and any finite-support distribution. Every
    atom's contribution is nonnegative for monotone price curves, so the fee
    is nonnegative regardless of the noise mean; the zero atom contributes
    exactly 0.0. A fee that overflows to a non-finite value raises DomainError.
    """
    s = state_x + delta
    curve._require(s, "post-trade reserve x+delta")
    for atom in dist.atoms:
        if not curve.contains(s + atom.eta):
            raise DomainError(
                f"noised reserve {s + atom.eta} (atom eta={atom.eta}) exits the curve domain"
            )
    gamma = 0.0
    for atom in dist.atoms:
        if atom.eta == 0.0:
            continue
        gamma += atom.p * curve.reversal_gain(s, atom.eta)
    if not math.isfinite(gamma):
        raise DomainError(f"noise fee {gamma} is not finite")
    return FeeQuote(gamma, state_x, delta, dist, FeeMethod.GENERIC)


def noise_fee_closed_form(
    level: float, state_x: float, delta: float, dist: NoiseDistribution
) -> FeeQuote:
    """Constant-product fee for two-atom zero-mean noise, in closed form.

    With atoms eta1, eta2 and s = state_x + delta:

        gamma = -K * eta1 * eta2 / (s * (s + eta1) * (s + eta2))

    Only the constant-product family admits this; the distribution must have
    exactly two atoms and zero mean (the probabilities then cancel out of the
    expectation, which is why they do not appear).
    """
    if len(dist.atoms) != 2:
        raise DistributionShapeError(
            f"closed form needs exactly two atoms, got {len(dist.atoms)}"
        )
    eta1, eta2 = dist.atoms[0].eta, dist.atoms[1].eta
    scale = max(1.0, abs(eta1), abs(eta2))
    if abs(dist.mean()) > ZERO_MEAN_TOL * scale:
        raise NonZeroMeanError(
            f"closed form needs zero-mean noise, got mean {dist.mean()}"
        )
    if not (math.isfinite(level) and level > 0.0):
        raise DomainError(f"constant-product level must be positive, got {level}")
    s = state_x + delta
    for point in (s, s + eta1, s + eta2):
        if point <= 0.0:
            raise DomainError(f"reserve {point} not strictly positive")
    gamma = -level * eta1 * eta2 / (s * (s + eta1) * (s + eta2))
    if not math.isfinite(gamma):
        raise DomainError(f"noise fee {gamma} is not finite")
    return FeeQuote(gamma, state_x, delta, dist, FeeMethod.CLOSED_FORM)
