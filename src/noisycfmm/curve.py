"""Level-curve geometry for constant function market makers.

A market maker holding reserves (x, y) trades along a level set of its
trading function f(x, y). Everything a simulation needs is a query on that
level set: the Y-reserve at a given X-reserve, the spot price, its inverse,
integrals of price against X, and the local liquidity. For the three families
here all five queries have closed forms. Since dY/dx = -P(x) along the level
set, integrals of the spot price reduce to differences of Y, which is what
keeps the fee engine exact; the tests check that identity independently
against an adaptive-quadrature oracle.

Families:
  constant product   f(x, y) = x * y
  LMSR level curve   f(x, y) = 2 - exp(-x) - exp(-y)
  constant sum       f(x, y) = r * x + y
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .codec import fields_of
from .errors import DomainError, NoSolutionError

# Default represented reserve interval; the curve's own geometry may narrow it.
DEFAULT_X_MIN = 1e-9
DEFAULT_X_MAX = 1e12


class Family(enum.Enum):
    """Trading-function families with closed-form level-curve queries."""

    CONSTANT_PRODUCT = "constant_product"
    LMSR = "lmsr"
    CONSTANT_SUM = "constant_sum"


@dataclass(frozen=True, slots=True)
class TradingCurve:
    """One level set of a trading function, restricted to a reserve interval.

    ``level`` is the conserved f-value (for constant product the familiar K,
    for constant sum the invariant r*x + y). ``slope`` is the constant-sum
    exchange rate r and is ignored by the other families. ``x_min``/``x_max``
    bound the X reserves the simulation is willing to represent; they are
    intersected with the interval where the level set keeps both reserves
    strictly positive. ``x_lo``/``x_hi`` are derived, not set: the smallest
    and largest X reserve ``contains`` accepts.
    """

    family: Family
    level: float
    slope: float = 1.0
    x_min: float = DEFAULT_X_MIN
    x_max: float = DEFAULT_X_MAX
    x_lo: float = field(init=False, compare=False, repr=False)
    x_hi: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.level) and self.level > 0.0):
            raise DomainError(f"curve level must be a positive finite real, got {self.level}")
        if self.family is Family.LMSR and not self.level < 2.0:
            raise DomainError(f"LMSR level must lie in (0, 2), got {self.level}")
        if self.family is Family.CONSTANT_SUM and not (
            math.isfinite(self.slope) and self.slope > 0.0
        ):
            raise DomainError(f"constant-sum slope must be a positive finite real, got {self.slope}")
        if not (0.0 < self.x_min < self.x_max):
            raise DomainError(
                f"need 0 < x_min < x_max, got x_min={self.x_min}, x_max={self.x_max}"
            )
        # The natural bounds are open and [x_min, x_max] is closed; stepping
        # one float inside the natural ones makes both closed, so contains is
        # two comparisons (which also reject NaN and the infinities).
        lo, hi = self.natural_bounds()
        object.__setattr__(self, "x_lo", max(math.nextafter(lo, math.inf), self.x_min))
        object.__setattr__(self, "x_hi", min(math.nextafter(hi, -math.inf), self.x_max))

    @classmethod
    def constant_product(
        cls, level: float, *, x_min: float = DEFAULT_X_MIN, x_max: float = DEFAULT_X_MAX
    ) -> "TradingCurve":
        return cls(Family.CONSTANT_PRODUCT, level, x_min=x_min, x_max=x_max)

    @classmethod
    def lmsr(
        cls, level: float, *, x_min: float = DEFAULT_X_MIN, x_max: float = DEFAULT_X_MAX
    ) -> "TradingCurve":
        return cls(Family.LMSR, level, x_min=x_min, x_max=x_max)

    @classmethod
    def constant_sum(
        cls,
        level: float,
        slope: float,
        *,
        x_min: float = DEFAULT_X_MIN,
        x_max: float = DEFAULT_X_MAX,
    ) -> "TradingCurve":
        return cls(Family.CONSTANT_SUM, level, slope=slope, x_min=x_min, x_max=x_max)

    def _json_shape(self) -> dict:
        """The init fields; the slope only where the family has one."""
        return fields_of(self) if self.family is Family.CONSTANT_SUM else fields_of(self, "slope")

    # -- domain -------------------------------------------------------------

    def natural_bounds(self) -> tuple[float, float]:
        """Open interval of X reserves keeping both reserves strictly positive."""
        if self.family is Family.CONSTANT_PRODUCT:
            return 0.0, math.inf
        if self.family is Family.CONSTANT_SUM:
            return 0.0, self.level / self.slope
        # LMSR: exp(-x) < 2 - level keeps y real, and y > 0 needs
        # exp(-x) > 1 - level (binding only when level < 1).
        c = 2.0 - self.level
        lo = max(0.0, -math.log(c))
        hi = -math.log(c - 1.0) if c > 1.0 else math.inf
        return lo, hi

    def contains(self, x: float) -> bool:
        return self.x_lo <= x <= self.x_hi

    def _require(self, x: float, what: str) -> None:
        if not self.x_lo <= x <= self.x_hi:  # contains, inlined on the hot path
            lo, hi = self.natural_bounds()
            raise DomainError(
                f"{what}={x} outside the represented domain "
                f"[{max(lo, self.x_min)}, {min(hi, self.x_max)}] of {self.family.value}"
            )

    # -- queries ------------------------------------------------------------

    def y_of_x(self, x: float) -> float:
        """Y reserve paired with X reserve ``x`` on this level set."""
        self._require(x, "x")
        if self.family is Family.CONSTANT_PRODUCT:
            return self.level / x
        if self.family is Family.CONSTANT_SUM:
            return self.level - self.slope * x
        arg = (2.0 - self.level) - math.exp(-x)
        if arg <= 0.0:  # only reachable by rounding at the domain edge
            raise DomainError(f"x={x} too close to the LMSR domain edge")
        return -math.log(arg)

    def spot_price(self, x: float) -> float:
        """Marginal exchange rate f_x/f_y at (x, Y(x))."""
        self._require(x, "x")
        if self.family is Family.CONSTANT_PRODUCT:
            return self.level / (x * x)
        if self.family is Family.CONSTANT_SUM:
            return self.slope
        u = math.exp(-x)
        return u / ((2.0 - self.level) - u)

    def x_of_price(self, price: float) -> float:
        """Largest X reserve where the spot price equals ``price``.

        Strictly decreasing spot price (constant product, LMSR) makes the
        solution unique; for constant sum every point has price r, so r maps
        to the represented upper end of the domain and anything else has no
        solution.
        """
        if not (math.isfinite(price) and price > 0.0):
            raise DomainError(f"price must be a positive finite real, got {price}")
        if self.family is Family.CONSTANT_PRODUCT:
            x = math.sqrt(self.level / price)
        elif self.family is Family.CONSTANT_SUM:
            if price != self.slope:
                raise NoSolutionError(
                    f"constant-sum spot price is {self.slope} everywhere; no reserve has price {price}"
                )
            _, hi = self.natural_bounds()
            x = min(self.x_max, math.nextafter(hi, 0.0))
        else:
            x = -math.log((2.0 - self.level) * price / (1.0 + price))
        self._require(x, f"x_of_price({price})")
        return x

    def integral_price(self, a: float, b: float) -> float:
        """Integral of the spot price over X reserves from a to b.

        Equal to Y(a) - Y(b), because dY/dx = -P(x) on the level set, but
        evaluated with the difference taken inside the closed form. Naive
        subtraction of two Y values loses most of the mantissa when a and b
        are close, and fee pricing lives exactly there (noise offsets are
        small against the reserves). Orientation is signed: swapping a and b
        negates the result.
        """
        self._require(a, "a")
        self._require(b, "b")
        if self.family is Family.CONSTANT_PRODUCT:
            return self.level * (b - a) / (a * b)
        if self.family is Family.CONSTANT_SUM:
            return self.slope * (b - a)
        # log(c - e^-b) - log(c - e^-a) with the quotient folded into log1p
        c = 2.0 - self.level
        u_a = math.exp(-a)
        shift = math.expm1(a - b) * u_a  # e^-b - e^-a without cancellation
        denom = c - u_a
        if denom <= 0.0 or denom - shift <= 0.0:
            raise DomainError(f"reserves [{a}, {b}] too close to the LMSR domain edge")
        return math.log1p(-shift / denom)

    def reversal_gain(self, s: float, eta: float) -> float:
        """Value of undoing a displacement of eta in X reserves, starting at s.

        The integral of P(a) - P(s) for a running from s + eta back to s:
        what the next trader extracts by returning the pool to where it
        stood. Mathematically equal to integral_price(s + eta, s) plus
        eta * spot_price(s), but that difference cancels to O(eta^2) while
        each term is O(eta), so the naive form loses half its digits once
        |eta| is small against s. Fee pricing lives exactly there, so each
        family gets a form whose terms all share the result's sign.
        """
        self._require(s, "s")
        if eta == 0.0:
            return 0.0
        self._require(s + eta, "s+eta")
        if self.family is Family.CONSTANT_PRODUCT:
            return self.level * eta * eta / (s * s * (s + eta))
        if self.family is Family.CONSTANT_SUM:
            return 0.0
        c = 2.0 - self.level
        v = math.exp(-s)
        d = c - v
        if d <= 0.0:
            raise DomainError(f"reserve {s} too close to the LMSR domain edge")
        beta = v / d  # spot price at s
        z = -beta * math.expm1(-eta)  # (e^-s - e^-(s+eta)) / (c - e^-s)
        if 1.0 + z <= 0.0:
            raise DomainError(f"reserve {s + eta} too close to the LMSR domain edge")
        # both addends are positive and O(eta^2): no cancellation between them
        return _z_minus_log1p(z) + beta * _eta_plus_expm1_neg(eta)

    def liquidity(self, price: float) -> float | None:
        """Reciprocal price sensitivity 1/(dP/dx) at the reserve with spot ``price``.

        Negative for downward-sloping price curves; larger magnitude means a
        deeper market. Returns None where dP/dx = 0 (constant sum), the
        undefined case. The zero-liquidity convention for kinked price curves
        never arises here because all three families are smooth inside their
        domains.
        """
        x = self.x_of_price(price)
        if self.family is Family.CONSTANT_PRODUCT:
            # dP/dx = -2*level/x^3
            return -(x * x * x) / (2.0 * self.level)
        if self.family is Family.CONSTANT_SUM:
            return None
        # LMSR: dP/dx = -p*(1+p), independent of the level.
        return -1.0 / (price * (1.0 + price))


def _z_minus_log1p(z: float) -> float:
    """z - log(1+z) without cancellation; ~z^2/2 near zero, needs z > -1."""
    if abs(z) >= 0.25:
        return z - math.log1p(z)
    # sum_{k>=2} (-1)^k z^k / k; ratio <= 0.25 so the tail dies fast
    total = 0.0
    power = z * z
    k = 2
    while k < 64:
        term = power / k
        total += term
        if abs(term) <= 2.3e-17 * total:
            break
        power *= -z
        k += 1
    return total


def _eta_plus_expm1_neg(eta: float) -> float:
    """eta + expm1(-eta) without cancellation; ~eta^2/2 near zero."""
    if abs(eta) >= 0.5:
        return eta + math.expm1(-eta)
    # sum_{k>=2} (-eta)^k / k!
    total = 0.0
    term = eta * eta / 2.0
    k = 2
    while k < 40:
        total += term
        if abs(term) <= 2.3e-17 * total:
            break
        k += 1
        term *= -eta / k
    return total
