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
from functools import partial
from typing import Callable

from .codec import fields_of, number, parse_kind
from .errors import DomainError, NoSolutionError

# Default represented reserve interval; the curve's own geometry may narrow it.
DEFAULT_X_MIN = 1e-9
DEFAULT_X_MAX = 1e12


class Family(enum.Enum):
    """Trading-function families with closed-form level-curve queries."""

    CONSTANT_PRODUCT = "constant_product"
    LMSR = "lmsr"
    CONSTANT_SUM = "constant_sum"


_CP, _LMSR, _CSUM = Family  # for construction: each Family.X lookup costs ~0.1 us


@dataclass(frozen=True, slots=True)
class TradingCurve:
    """One level set of a trading function, restricted to a reserve interval.

    ``level`` is the conserved f-value (for constant product the familiar K,
    for constant sum the invariant r*x + y). ``slope`` is the constant-sum
    exchange rate r and is ignored by the other families. ``x_min``/``x_max``
    bound the X reserves the simulation is willing to represent; they are
    intersected with the interval where the level set keeps both reserves
    strictly positive. ``x_lo``/``x_hi`` are derived, not set: the smallest
    and largest X reserve ``contains``, the one domain test, accepts. Between
    them ``y_of_x`` and ``spot_price`` are finite and positive in floats, and
    ``integral_price`` and the reversal gain raise only DomainError: LMSR stops
    below ln(float max) ~ 709.78, and any bound steps in where rounding fails.
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
        if self.family is _LMSR and not self.level < 2.0:
            raise DomainError(f"LMSR level must lie in (0, 2), got {self.level}")
        if self.family is _CSUM and not (math.isfinite(self.slope) and self.slope > 0.0):
            raise DomainError(f"constant-sum slope must be a positive finite real, got {self.slope}")
        if not (0.0 < self.x_min < self.x_max):
            raise DomainError(
                f"need 0 < x_min < x_max, got x_min={self.x_min}, x_max={self.x_max}"
            )
        # Closed bounds inside the open natural ones, so contains is two comparisons
        # (which also reject NaN and the infinities).
        if self.family is _CP:  # x^3 and level/x^2 positive and finite
            root = math.sqrt(self.level)
            x_lo, x_hi = max(2.0**-358, root * 2.0**-511), min(2.0**340, root * 2.0**536)
        elif self.family is _LMSR:  # 0 < 2 - level - e^-x < 1; expm1 below ln(float max)
            lo = self.natural_bounds()[0]
            x_lo = lo + 2.0**-50 * max(1.0, lo)
            x_hi = 709.782712893384 if self.level > 1.0 else -math.log(1.0 - self.level + 2.0**-51)
        else:
            x_lo, x_hi = 0.0, math.nextafter(self.natural_bounds()[1], 0.0)
        x_lo, x_hi = max(x_lo, self.x_min), min(x_hi, self.x_max)
        # where rounding fails the queries at a bound, step in by 1, 3, 7, ... ulps
        step = math.ulp(x_lo)
        while x_lo <= x_hi and not self._finite_at(x_lo):
            x_lo, step = x_lo + step, 2.0 * step
        step = math.ulp(x_hi)
        while x_lo <= x_hi and not self._finite_at(x_hi):
            x_hi, step = x_hi - step, 2.0 * step
        object.__setattr__(self, "x_lo", x_lo)
        object.__setattr__(self, "x_hi", x_hi)

    def _finite_at(self, x: float) -> bool:
        """Are y_of_x(x) and spot_price(x) finite and positive, as they compute them?"""
        if self.family is _LMSR:  # for d in (0, 1) here, y = -log(d) and spot e^-x / d
            return 0.0 < (2.0 - self.level) - math.exp(-x) < 1.0
        if self.family is _CSUM:
            return self.level - self.slope * x > 0.0
        return 0.0 < self.level / (x * x) < math.inf  # and with it level / x

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
            raise DomainError(
                f"{what}={x} outside the represented domain "
                f"[{self.x_lo}, {self.x_hi}] of {self.family.value}"
            )

    # -- queries ------------------------------------------------------------

    def y_of_x(self, x: float) -> float:
        """Y reserve paired with X reserve ``x`` on this level set."""
        self._require(x, "x")
        if self.family is Family.CONSTANT_PRODUCT:
            return self.level / x
        if self.family is Family.CONSTANT_SUM:
            return self.level - self.slope * x
        return -math.log((2.0 - self.level) - math.exp(-x))

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
            x = self.x_hi
        else:  # e^-x, which underflows to 0 where x lies past every float
            e = (2.0 - self.level) * price / (1.0 + price)
            x = -math.log(e) if e > 0.0 else math.inf
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
        if denom - shift <= 0.0:
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
        family gets a form whose terms all share the result's sign; the
        formulas are _cp_gain, _csum_gain and _lmsr_gain below. This is the
        one-atom case of reversal_gains.
        """
        return self.reversal_gains(s)(eta)

    def reversal_gains(self, s: float) -> Callable[[float], float]:
        """reversal_gain(s, eta) as a function of eta alone, for many atoms at one s.

        Checks s and computes its terms (s^2, or e^-s for LMSR) once. Each
        call then checks s + eta and evaluates the same formula as
        reversal_gain, so the two agree bit for bit and raise the same errors.
        """
        if not self.x_lo <= s <= self.x_hi:
            self._require(s, "s")
        if self.family is Family.CONSTANT_PRODUCT:
            return partial(_cp_gain, self, s, s * s)
        if self.family is Family.CONSTANT_SUM:
            return partial(_csum_gain, self, s)
        return partial(_lmsr_gain, self, s, math.exp(-s))

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


_CURVE_FAMILIES = {
    "constant_product": Family.CONSTANT_PRODUCT,
    "cp": Family.CONSTANT_PRODUCT,
    "lmsr": Family.LMSR,
    "constant_sum": Family.CONSTANT_SUM,
    "csum": Family.CONSTANT_SUM,
}
_CURVE_FIELDS = {"level": number, "x_min": number, "x_max": number}
_CURVE_KINDS = {
    name: {**_CURVE_FIELDS, "slope": number} if family is Family.CONSTANT_SUM else _CURVE_FIELDS
    for name, family in _CURVE_FAMILIES.items()
}


def parse_curve(obj: dict, where: str = "curve") -> TradingCurve:
    fields = parse_kind(obj, "family", _CURVE_KINDS, ("level", "slope"), where)
    return TradingCurve(_CURVE_FAMILIES[fields.pop("family")], **fields)


# The reversal-gain formulas, one per family. The caller has checked s; each
# formula checks s + eta.


def _cp_gain(curve: TradingCurve, s: float, s2: float, eta: float) -> float:
    """K eta^2 / (s^2 (s + eta)), with s2 = s * s; 0 at eta = 0, as s^3 > 0 on the domain."""
    t = s + eta
    if not curve.x_lo <= t <= curve.x_hi:
        curve._require(t, "s+eta")
    return curve.level * eta * eta / (s2 * t)


def _csum_gain(curve: TradingCurve, s: float, eta: float) -> float:
    """0: the spot price is flat."""
    if eta != 0.0 and not curve.x_lo <= s + eta <= curve.x_hi:
        curve._require(s + eta, "s+eta")
    return 0.0


def _lmsr_gain(curve: TradingCurve, s: float, v: float, eta: float) -> float:
    """z - log1p(z) + beta (eta + expm1(-eta)), with v = e^-s, beta the spot price
    at s and z = -beta expm1(-eta)."""
    if eta == 0.0:
        return 0.0
    t = s + eta
    if not curve.x_lo <= t <= curve.x_hi:
        curve._require(t, "s+eta")
    beta = v / ((2.0 - curve.level) - v)  # spot price at s
    z = -beta * math.expm1(-eta)  # (e^-s - e^-(s+eta)) / (c - e^-s)
    if 1.0 + z <= 0.0:
        raise DomainError(f"reserve {t} too close to the LMSR domain edge")
    # both addends are positive and O(eta^2): no cancellation between them
    return _z_minus_log1p(z) + beta * _eta_plus_expm1_neg(eta)


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
