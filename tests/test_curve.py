"""Trading curve math: closed forms against independent numerical oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisycfmm import (
    DomainError,
    Family,
    NoiseDistribution,
    NoSolutionError,
    TradingCurve,
    noise_fee,
)
from noisycfmm import curve as curve_module
from oracles import (
    eta_plus_expm1_neg_loop,
    integral_price_quadrature,
    reversal_gain_oracle,
    z_minus_log1p_loop,
)

# Closed forms are exact algebra; anything tighter than a few ulps of the
# operands is luck, so relative comparisons sit at 1e-12.
EXACT_REL = 1e-12
# The adaptive quadrature oracle is tuned to 1e-10 absolute.
QUAD_TOL = 1e-9
# Central finite differences lose half the mantissa.
FD_REL = 1e-6

CP = TradingCurve.constant_product(1e4)
# level >= 1 leaves the X reserve unbounded above; level < 1 caps it
LMSR = TradingCurve.lmsr(1.5)
LMSR_SHALLOW = TradingCurve.lmsr(0.8)
CSUM = TradingCurve.constant_sum(300.0, slope=1.5)


def bisect_x_of_price(curve: TradingCurve, price: float, lo: float, hi: float) -> float:
    # oracle: spot_price is strictly decreasing in x for cp/lmsr
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if curve.spot_price(mid) > price:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestConstantProduct:
    def test_reserves_round_trip(self):
        assert CP.y_of_x(100.0) == pytest.approx(100.0, rel=EXACT_REL)
        assert CP.spot_price(100.0) == pytest.approx(1.0, rel=EXACT_REL)
        assert CP.x_of_price(1.0) == pytest.approx(100.0, rel=EXACT_REL)

    def test_post_trade_spot(self):
        # K=1e4, one unit in: price falls to K/101^2
        assert CP.spot_price(101.0) == pytest.approx(0.9802960494069209, rel=EXACT_REL)

    @pytest.mark.parametrize("x", [0.5, 7.0, 100.0, 5_000.0])
    def test_spot_matches_derivative(self, x):
        h = 1e-6 * x
        fd = (CP.y_of_x(x - h) - CP.y_of_x(x + h)) / (2 * h)
        assert CP.spot_price(x) == pytest.approx(fd, rel=FD_REL)

    def test_liquidity_golden(self):
        # L(p) = -x^3/(2K) at x = sqrt(K/p)
        assert CP.liquidity(1.0) == pytest.approx(-50.0, rel=EXACT_REL)
        assert CP.liquidity(4.0) == pytest.approx(-(50.0**3) / (2e4), rel=EXACT_REL)

    def test_liquidity_is_price_inverse_slope(self):
        p = 2.5
        h = 1e-7
        fd = (CP.x_of_price(p + h) - CP.x_of_price(p - h)) / (2 * h)
        assert CP.liquidity(p) == pytest.approx(fd, rel=FD_REL)


class TestLMSR:
    def test_level_bounds(self):
        with pytest.raises(ValueError):
            TradingCurve.lmsr(2.0)
        with pytest.raises(ValueError):
            TradingCurve.lmsr(-1.0)

    def test_y_solves_invariant(self):
        for x in (1.0, 2.0, 3.0):
            y = LMSR.y_of_x(x)
            assert 2.0 - math.exp(-x) - math.exp(-y) == pytest.approx(1.5, rel=EXACT_REL)

    def test_x_of_price_matches_bisection(self):
        lo, _ = LMSR.natural_bounds()
        for p in (0.2, 1.0, 5.0):
            closed = LMSR.x_of_price(p)
            oracle = bisect_x_of_price(LMSR, p, lo + 1e-9, 60.0)
            assert closed == pytest.approx(oracle, rel=1e-9)

    def test_liquidity_formula(self):
        p = 1.7
        assert LMSR.liquidity(p) == pytest.approx(-1.0 / (p * (1.0 + p)), rel=EXACT_REL)

    def test_deep_level_domain(self):
        lo, hi = LMSR.natural_bounds()
        # level > 1 pushes lo above zero and leaves no upper cap
        assert lo == pytest.approx(-math.log(2.0 - 1.5), rel=EXACT_REL)
        assert math.isinf(hi)
        with pytest.raises(DomainError):
            LMSR.y_of_x(lo - 1e-9)

    def test_shallow_level_domain(self):
        lo, hi = LMSR_SHALLOW.natural_bounds()
        # level < 1: the Y reserve hits zero at finite x
        assert lo == 0.0
        assert hi == pytest.approx(-math.log(2.0 - 0.8 - 1.0), rel=EXACT_REL)
        assert LMSR_SHALLOW.y_of_x(hi - 1e-9) == pytest.approx(0.0, abs=1e-8)
        with pytest.raises(DomainError):
            LMSR_SHALLOW.y_of_x(hi + 1e-9)


class TestConstantSum:
    def test_price_is_constant(self):
        assert CSUM.spot_price(10.0) == 1.5
        assert CSUM.spot_price(150.0) == 1.5

    def test_liquidity_undefined(self):
        assert CSUM.liquidity(1.5) is None

    def test_x_of_price_off_slope(self):
        with pytest.raises(NoSolutionError):
            CSUM.x_of_price(2.0)

    def test_x_of_price_on_slope_returns_upper_end(self):
        x = CSUM.x_of_price(1.5)
        assert CSUM.contains(x)
        # every contained reserve has the target price, so return the deepest one
        assert x > 0.99 * min(CSUM.x_max, 300.0 / 1.5)

    def test_y_runs_out(self):
        with pytest.raises(DomainError):
            CSUM.y_of_x(300.0 / 1.5 + 1.0)


class TestIntegralPrice:
    def test_equals_reserve_difference(self):
        # stable algebra may differ from naive subtraction in the last ulp
        a, b = 80.0, 120.0
        assert CP.integral_price(a, b) == pytest.approx(
            CP.y_of_x(a) - CP.y_of_x(b), rel=EXACT_REL
        )

    @pytest.mark.parametrize(
        "curve,a,b",
        [
            (CP, 50.0, 180.0),
            (CP, 130.0, 61.0),
            (LMSR, 0.8, 2.0),
            (LMSR, 2.5, 0.9),
        ],
    )
    def test_against_quadrature(self, curve, a, b):
        exact = curve.integral_price(a, b)
        quad = integral_price_quadrature(curve, a, b)
        assert exact == pytest.approx(quad, abs=QUAD_TOL)

    @given(
        a=st.floats(min_value=20.0, max_value=400.0),
        b=st.floats(min_value=20.0, max_value=400.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_cp_quadrature_property(self, a, b):
        exact = CP.integral_price(a, b)
        quad = integral_price_quadrature(CP, a, b)
        assert exact == pytest.approx(quad, abs=QUAD_TOL), f"a={a} b={b}"

    def test_orientation(self):
        # integrating forward then back cancels
        assert CP.integral_price(90.0, 110.0) == -CP.integral_price(110.0, 90.0)


class TestReversalGain:
    """The per-displacement arbitrage value, integral of P(a) - P(s)."""

    @pytest.mark.parametrize(
        "curve,s,eta",
        [(CP, 100.0, 5.0), (CP, 100.0, -7.0), (LMSR, 1.2, 0.6), (LMSR, 1.2, -0.4)],
    )
    def test_matches_naive_form_at_moderate_eta(self, curve, s, eta):
        # |eta|/s is large enough here that the naive difference keeps
        # most of its digits and works as an oracle
        naive = curve.integral_price(s + eta, s) + eta * curve.spot_price(s)
        assert curve.reversal_gain(s, eta) == pytest.approx(naive, rel=1e-10)

    @pytest.mark.parametrize(
        "curve,s,eta",
        [(CP, 100.0, 5.0), (CP, 100.0, -7.0), (LMSR, 1.2, 0.6), (LMSR, 1.2, -0.4)],
    )
    def test_matches_quadrature(self, curve, s, eta):
        quad = integral_price_quadrature(curve, s + eta, s) + eta * curve.spot_price(s)
        assert curve.reversal_gain(s, eta) == pytest.approx(quad, abs=QUAD_TOL)

    def test_cp_tiny_eta_against_exact_rationals(self):
        # K*eta^2/(s^2*(s+eta)) carried out in exact arithmetic
        s, eta = 100.0, 1e-7
        exact = Fraction(10_000) * Fraction(eta) ** 2 / (
            Fraction(s) ** 2 * (Fraction(s) + Fraction(eta))
        )
        assert CP.reversal_gain(s, eta) == pytest.approx(float(exact), rel=EXACT_REL)

    def test_lmsr_tiny_eta_against_series(self):
        # leading term is eta^2/2 * p * (1 + p); next correction is O(eta)
        s, eta = 1.2, 1e-7
        p = LMSR.spot_price(s)
        lead = 0.5 * eta * eta * p * (1.0 + p)
        assert LMSR.reversal_gain(s, eta) == pytest.approx(lead, rel=1e-6)

    def test_zero_eta_and_flat_price(self):
        assert CP.reversal_gain(100.0, 0.0) == 0.0
        assert CSUM.reversal_gain(50.0, 30.0) == 0.0

    @given(
        s=st.floats(min_value=20.0, max_value=400.0),
        eta=st.floats(min_value=-15.0, max_value=15.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_positive_for_decreasing_price(self, s, eta):
        gain = CP.reversal_gain(s, eta)
        assert gain >= 0.0, f"s={s} eta={eta}"
        # eta^2 underflows for subnormal eta, so only insist away from zero
        if abs(eta) > 1e-6:
            assert gain > 0.0, f"s={s} eta={eta}"

    def test_domain_checked_on_both_ends(self):
        with pytest.raises(DomainError):
            CP.reversal_gain(100.0, -100.0)
        with pytest.raises(DomainError):
            LMSR.reversal_gain(1.2, -2.0)


def outcome(f, *args):
    """f(*args) as the hex of its float, or the type and message of its error."""
    try:
        return f(*args).hex()
    except DomainError as exc:
        return type(exc), str(exc)


def eta_for_z(beta: float, z: float) -> float:
    """The eta at which the LMSR gain's z = -beta * expm1(-eta) equals z (for z < beta)."""
    return -math.log1p(-z / beta)


@st.composite
def gain_state(draw):
    """A curve of any family, a reserve s on it and 1 to 64 displacements from s.

    The displacements mix zeros, tiny ones of either sign (subnormals too),
    ones near |eta| = 0.5 and, on LMSR, near |z| = 0.25, where the two series
    switch to closed forms, and ones that may leave the domain.
    """
    family = draw(st.sampled_from(Family))
    if family is Family.CONSTANT_PRODUCT:
        curve = TradingCurve.constant_product(draw(st.floats(1e2, 1e8)))
        s = draw(st.floats(0.5, 1e4))
    elif family is Family.LMSR:
        curve = TradingCurve.lmsr(draw(st.floats(0.05, 1.95)))
        s = draw(st.floats(curve.x_lo, min(curve.x_hi, curve.x_lo + 4.0)))
    else:
        curve = TradingCurve.constant_sum(draw(st.floats(1e2, 1e5)), draw(st.floats(0.5, 2.0)))
        s = draw(st.floats(curve.x_lo, curve.x_hi))
    kinds = [
        st.sampled_from([0.0, -0.0]),
        st.floats(-1e-9, 1e-9),
        st.floats(0.45, 0.55).flatmap(lambda e: st.sampled_from([e, -e])),
        st.floats(-1.5 * s, 1.5 * s),
    ]
    if family is Family.LMSR:
        beta = curve.spot_price(s)
        kinds.append(
            st.floats(-0.35, 0.35).filter(lambda z: z < beta).map(lambda z: eta_for_z(beta, z))
        )
    etas = draw(st.lists(st.one_of(kinds), min_size=1, max_size=64))
    return curve, s, etas


class TestPerStateGain:
    """reversal_gains(s) and reversal_gain against the from-scratch oracle, bit for bit."""

    @given(case=gain_state(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_bit_for_bit(self, case, data):
        curve, s, etas = case
        gain = curve.reversal_gains(s)
        for eta in etas:
            want = outcome(reversal_gain_oracle, curve, s, eta)
            assert outcome(gain, eta) == want, f"s={s!r} eta={eta!r}"
            assert outcome(curve.reversal_gain, s, eta) == want, f"s={s!r} eta={eta!r}"
        # noise_fee on the atoms that stay on the curve: sum of p * gain in atom order
        inside = [eta for eta in etas if curve.contains(s + eta)]
        if not inside:
            return
        weights = data.draw(st.lists(
            st.floats(0.01, 1.0), min_size=len(inside), max_size=len(inside)
        ))
        total = math.fsum(weights)
        dist = NoiseDistribution.from_pairs((eta, w / total) for eta, w in zip(inside, weights))
        try:
            want = 0.0
            for atom in dist.atoms:
                if atom.eta != 0.0:
                    want += atom.p * reversal_gain_oracle(curve, s, atom.eta)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                noise_fee(curve, s, 0.0, dist)
            assert str(got.value) == str(exc)
            return
        assert noise_fee(curve, s, 0.0, dist).gamma.hex() == want.hex()

    @pytest.mark.parametrize("z", [-0.26, -0.25, -0.24, 0.24, 0.25, 0.26])
    @pytest.mark.parametrize("curve", [LMSR, LMSR_SHALLOW])
    def test_lmsr_series_edges(self, curve, z):
        # |z| = 0.25 switches z - log1p(z) to its series, |eta| = 0.5 the other one
        s = curve.x_lo + 0.8
        gain = curve.reversal_gains(s)
        for eta in (eta_for_z(curve.spot_price(s), z), 0.49, 0.5, 0.51, -0.49, -0.5, -0.51):
            want = reversal_gain_oracle(curve, s, eta).hex()
            assert gain(eta).hex() == want
            assert curve.reversal_gain(s, eta).hex() == want

    def test_zero_tiny_and_flat(self):
        for curve, s in ((CP, 100.0), (LMSR, 1.2), (CSUM, 50.0)):
            gain = curve.reversal_gains(s)
            for eta in (0.0, -0.0, 5e-324, -5e-324, 1e-12, -1e-12):
                want = reversal_gain_oracle(curve, s, eta).hex()
                assert gain(eta).hex() == want
                assert curve.reversal_gain(s, eta).hex() == want

    def test_errors_match_oracle(self):
        # s off the curve, s + eta off the curve, and reserves just below x_lo,
        # where LMSR rounds onto its edge (e^-s onto 2 - level, 1 + z onto 0)
        lmsr_low = TradingCurve.lmsr(1.133)
        lmsr_steep = TradingCurve.lmsr(1.756)
        below = math.nextafter(lmsr_low.x_lo, 0.0)
        cases = [
            (CP, -1.0, 1.0), (CP, 100.0, -100.0), (LMSR, 1.2, -2.0), (CSUM, 50.0, 300.0),
            (lmsr_low, below, 0.1), (lmsr_steep, 1.9105870536889353, -0.5),
        ]
        for curve, s, eta in cases:
            want = outcome(reversal_gain_oracle, curve, s, eta)
            assert want[0] is DomainError
            assert outcome(curve.reversal_gain, s, eta) == want
            assert outcome(lambda e: curve.reversal_gains(s)(e), eta) == want
        assert outcome(reversal_gain_oracle, lmsr_low, below, 0.1)[1] == (
            f"s={below} outside the represented domain "
            f"[{lmsr_low.x_lo}, {lmsr_low.x_hi}] of lmsr"
        )
        assert outcome(reversal_gain_oracle, lmsr_steep, 1.9105870536889353, -0.5)[1] == (
            f"s+eta={1.9105870536889353 - 0.5} outside the represented domain "
            f"[{lmsr_steep.x_lo}, {lmsr_steep.x_hi}] of lmsr"
        )
        # at the lowest reserve the gain is priced, and a zero displacement is free
        want = reversal_gain_oracle(lmsr_low, lmsr_low.x_lo, 0.1)
        assert lmsr_low.reversal_gains(lmsr_low.x_lo)(0.1).hex() == want.hex()
        assert math.isfinite(want) and want > 0.0
        assert lmsr_low.reversal_gains(lmsr_low.x_lo)(0.0) == 0.0


# five mantissas of each binary band [2^(e-1), 2^e): its bottom, the float
# above it, the golden ratio's, 3/4 and the last float below its top
BAND_MANTISSAS = (
    0.5, math.nextafter(0.5, 1.0), (math.sqrt(5.0) - 1.0) / 2.0, 0.75, math.nextafter(1.0, 0.0),
)


def band_points(exponents):
    """(e, x) for the five mantissas of each band e, with both signs."""
    for e in exponents:
        for m in BAND_MANTISSAS:
            for x in (math.ldexp(m, e), math.ldexp(-m, e)):
                yield e, x


def z_terms_added(z: float) -> tuple[float, int]:
    """z_minus_log1p_loop's series branch: its sum and the number of terms it adds."""
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
    return total, k - 1


def eta_terms_added(eta: float) -> tuple[float, int]:
    """eta_plus_expm1_neg_loop's series branch: its sum and the number of terms it adds."""
    total = 0.0
    term = eta * eta / 2.0
    k = 2
    while k < 40:
        total += term
        if abs(term) <= 2.3e-17 * total:
            break
        k += 1
        term *= -eta / k
    return total, k - 1


# (library series, the stopping loop, its term counter, last exponent of the series
# branch, terms per step of the library's loop, the library's term table)
SERIES = {
    "z": (curve_module._z_minus_log1p, z_minus_log1p_loop, z_terms_added, -2, 4,
          curve_module._Z_TERMS),
    "eta": (curve_module._eta_plus_expm1_neg, eta_plus_expm1_neg_loop, eta_terms_added, -1, 1,
            curve_module._ETA_TERMS),
}


class TestSeriesTermTables:
    """The series add a tabled number of terms; the loops that stop on a small
    term (oracles) are the reference, bit for bit."""

    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_every_binary_exponent_matches_the_loop(self, name):
        series, loop, _, top, _, _ = SERIES[name]
        for _, x in band_points(range(-1074, top + 1)):
            assert series(x).hex() == loop(x).hex(), f"{name}={x!r}"
        for x in (0.0, -0.0, 5e-324, -5e-324):
            assert series(x).hex() == loop(x).hex(), f"{name}={x!r}"

    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_branch_edges_match_the_loop(self, name):
        # |z| = 0.25 and |eta| = 0.5 switch between the series and log1p/expm1
        series, loop, _, top, _, _ = SERIES[name]
        for edge in (math.ldexp(1.0, top - 1), -math.ldexp(1.0, top - 1)):
            for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0 * edge)):
                assert series(x).hex() == loop(x).hex(), f"{name}={x!r}"

    @given(x=st.floats(-0.6, 0.6))
    @settings(max_examples=400, deadline=None)
    def test_random_arguments_match_the_loop(self, x):
        for name, (series, loop, *_) in SERIES.items():
            assert series(x).hex() == loop(x).hex(), f"{name}={x!r}"

    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_table_is_the_loops_stop_counts(self, name):
        # regenerate each band's count from where the loop stops, rounded up to
        # the library's step; bands past the table's last entry share it
        series, loop, counted, top, step, table = SERIES[name]
        last = len(table) - 1
        stops: dict[int, int] = {}
        for e, x in band_points(range(-1074, top + 1)):
            total, terms = counted(x)
            assert total.hex() == loop(x).hex()  # the counter is the loop
            stops[e] = max(stops.get(e, 0), terms)
        for e, terms in stops.items():
            if -e < last:
                assert table[-e] == -(-terms // step) * step, f"band {e}"
            else:
                assert table[last] >= terms, f"band {e}"


def inside(x: float, toward: float, ulps: int) -> float:
    for _ in range(ulps):
        x = math.nextafter(x, toward)
    return x


@st.composite
def edge_curve(draw):
    """A curve of any family, its level and window [x_min, x_max] near the float edges:
    LMSR levels near 1 and 2, x_min down to 1e-300 and x_max up to 1e300."""
    family = draw(st.sampled_from(Family))
    window = {
        "x_min": draw(st.one_of(st.just(1e-9), st.floats(1e-300, 1.0))),
        "x_max": draw(st.one_of(st.just(1e12), st.floats(2.0, 1e300), st.just(math.inf))),
    }
    if family is Family.CONSTANT_PRODUCT:
        return TradingCurve.constant_product(draw(st.floats(5e-324, 1e308)), **window)
    if family is Family.CONSTANT_SUM:
        level, slope = draw(st.floats(1e-300, 1e300)), draw(st.floats(1e-300, 1e300))
        return TradingCurve.constant_sum(level, slope, **window)
    offset = st.integers(1, 60).map(lambda k: 2.0**-k)
    level = draw(st.one_of(
        st.floats(1e-3, 1.999),
        st.floats(0.999, 1.001),
        st.tuples(offset, st.sampled_from([-1.0, 1.0])).map(lambda o: 1.0 + o[1] * o[0]),
        st.integers(1, 52).map(lambda k: 2.0 - 2.0**-k),
    ))
    return TradingCurve.lmsr(level, **window)


class TestDomainEdges:
    """Every query is finite at x_lo and x_hi, and contains stops exactly there."""

    @given(curve=edge_curve())
    @settings(max_examples=300, deadline=None)
    @example(curve=TradingCurve.lmsr(1.484375))  # e^-x rounds onto 2 - level at the lowest reserve
    @example(curve=TradingCurve.lmsr(0.8))  # y rounds to 0 at the highest reserve
    @example(curve=TradingCurve.lmsr(1.5))  # expm1 overflows across [lo, 1e12]
    @example(curve=TradingCurve.constant_product(1e4, x_min=1e-200))  # x*x underflows
    def test_every_query_is_finite_at_the_domain_edges(self, curve):
        lo, hi = curve.x_lo, curve.x_hi
        assert not curve.contains(math.nextafter(lo, -math.inf))
        assert not curve.contains(math.nextafter(hi, math.inf))
        if lo > hi:  # the window holds no reserve the queries can price
            assert not curve.contains(lo) and not curve.contains(hi)
            return
        points = [x for x in (lo, inside(lo, hi, 3), hi, inside(hi, lo, 3)) if curve.contains(x)]
        for x in points:
            y, p = curve.y_of_x(x), curve.spot_price(x)
            assert 0.0 < y < math.inf and 0.0 < p < math.inf, (x, y, p)
        for a in points:
            for b in points:
                for query in (
                    lambda: curve.integral_price(a, b),
                    lambda: curve.reversal_gain(a, b - a),
                    lambda: curve.reversal_gains(a)(b - a),
                ):
                    try:
                        value = query()
                    except DomainError:
                        continue
                    assert not math.isnan(value), (a, b)


class TestValidationAndDomain:
    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            TradingCurve.constant_product(0.0)
        with pytest.raises(ValueError):
            TradingCurve.constant_product(-5.0)

    def test_reserve_window(self):
        tight = TradingCurve(Family.CONSTANT_PRODUCT, 1e4, x_min=1.0, x_max=200.0)
        with pytest.raises(DomainError):
            tight.y_of_x(0.5)
        with pytest.raises(DomainError):
            tight.y_of_x(201.0)
        assert tight.contains(100.0)
        assert not tight.contains(0.5)

    def test_x_of_price_rejects_unreachable(self):
        tight = TradingCurve(Family.CONSTANT_PRODUCT, 1e4, x_min=50.0, x_max=200.0)
        # price 100 needs x = 10, below the window
        with pytest.raises(DomainError):
            tight.x_of_price(100.0)

    @pytest.mark.parametrize("level", [1.5, 1.9])
    def test_lmsr_x_of_price_past_every_float(self, level):
        # e^-x = (2 - level) * price / (1 + price) underflows to 0 for 2 - level <= 1/2
        with pytest.raises(DomainError, match=r"x_of_price\(5e-324\)=inf outside"):
            TradingCurve.lmsr(level).x_of_price(5e-324)

    @pytest.mark.parametrize("curve", [
        CP, LMSR, LMSR_SHALLOW, CSUM, TradingCurve.lmsr(1.0),
        TradingCurve(Family.CONSTANT_PRODUCT, 1e4, x_min=1.0, x_max=math.inf),
        TradingCurve(Family.LMSR, 1.9, x_min=0.5, x_max=3.0),
    ])
    def test_contains_is_open_natural_and_closed_window(self, curve):
        # contains is the closed [x_lo, x_hi], inside the open natural interval
        # and the closed window; it stops short of a finite natural bound by a
        # few ulps at most, and LMSR and constant product cap an infinite one
        # (LMSR at ln(float max), or lower where y rounds to 0 for level <= 1)
        lo, hi = curve.natural_bounds()
        assert lo < curve.x_lo <= curve.x_hi < hi
        assert curve.x_min <= curve.x_lo and curve.x_hi <= curve.x_max
        assert curve.x_lo == curve.x_min or curve.x_lo - lo < 1e-14 * max(1.0, lo)
        if math.isfinite(hi):
            assert curve.x_hi == curve.x_max or hi - curve.x_hi < 1e-14 * hi
        else:
            assert curve.x_hi <= (709.782712893384 if curve.family is Family.LMSR else 2.0**340)
        points = [math.inf, -math.inf, math.nan, 0.0, -0.0]
        for bound in (lo, hi, curve.x_min, curve.x_max, curve.x_lo, curve.x_hi):
            for direction in (math.inf, -math.inf):
                v = bound
                for _ in range(3):
                    points.append(v)
                    v = math.nextafter(v, direction)
        for x in points:
            expected = curve.x_lo <= x <= curve.x_hi
            assert curve.contains(x) == expected, x
            assert not expected or (lo < x < hi and curve.x_min <= x <= curve.x_max), x

    def test_derived_bounds_stay_out_of_identity(self):
        twin = TradingCurve.lmsr(1.5)
        assert twin == LMSR and hash(twin) == hash(LMSR)
        assert repr(LMSR) == (
            "TradingCurve(family=<Family.LMSR: 'lmsr'>, level=1.5, slope=1.0, "
            "x_min=1e-09, x_max=1000000000000.0)"
        )

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            CP.y_of_x(math.inf)
        with pytest.raises(DomainError):
            CP.spot_price(math.nan)

    @given(p=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=30, deadline=None)
    def test_price_round_trip(self, p):
        for curve in (CP, LMSR):
            try:
                x = curve.x_of_price(p)
            except DomainError:
                continue
            assert curve.spot_price(x) == pytest.approx(p, rel=1e-9), f"p={p}"
