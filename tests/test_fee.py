"""Noise fee pricing: generic engine, closed form, independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisycfmm import (
    DistributionShapeError,
    DomainError,
    NoiseDistribution,
    NonZeroMeanError,
    PrivacySpec,
    TradingCurve,
    biased_binary,
    binary_mechanism,
    noise_fee,
    noise_fee_closed_form,
)
from oracles import integral_price_quadrature

# Generic vs closed form: both are exact algebra on the same floats.
AGREE_REL = 1e-9
# Oracle recomputation shares the arithmetic, so it should agree to the bit
# modulo association order; 1e-9 leaves room for none of that to matter.
ORACLE_REL = 1e-9

CP = TradingCurve.constant_product(1e4)
REF_SPEC = PrivacySpec(0.0, 2.0, 2.0)


def oracle_fee(curve: TradingCurve, x: float, delta: float, dist: NoiseDistribution) -> float:
    # brute force: expected cost of undoing the noise leg at the post-trade spot
    s = x + delta
    total = 0.0
    for atom in dist.atoms:
        y_move = curve.y_of_x(s + atom.eta) - curve.y_of_x(s)
        refund = atom.eta * curve.spot_price(s)
        total += atom.p * (y_move + refund)
    return total


class TestReferenceValues:
    def test_shallow_pool(self):
        d = binary_mechanism(1.0, REF_SPEC)
        got = noise_fee(CP, 100.0, 1.0, d).gamma
        assert got == pytest.approx(oracle_fee(CP, 100.0, 1.0, d), rel=ORACLE_REL)
        # three-significant-figure published value
        assert got == pytest.approx(1.67e-2, rel=0.01)
        # five-digit transcription of the same quantity
        assert got == pytest.approx(1.6735e-2, rel=1e-3)

    def test_deep_pool(self):
        d = binary_mechanism(1.0, REF_SPEC)
        deep = TradingCurve.constant_product(4e4)
        got = noise_fee(deep, 200.0, 1.0, d).gamma
        assert got == pytest.approx(oracle_fee(deep, 200.0, 1.0, d), rel=ORACLE_REL)
        assert got == pytest.approx(0.849e-2, rel=0.01)

    def test_pool_depth_ratio(self):
        d = binary_mechanism(1.0, REF_SPEC)
        shallow = noise_fee(CP, 100.0, 1.0, d).gamma
        deep = noise_fee(TradingCurve.constant_product(4e4), 200.0, 1.0, d).gamma
        assert 0.5 <= deep / shallow <= 0.52

    def test_zero_noise_zero_fee(self):
        assert noise_fee(CP, 100.0, 1.0, NoiseDistribution.zero()).gamma == 0.0

    def test_fee_is_positive_for_real_noise(self):
        d = binary_mechanism(1.0, REF_SPEC)
        assert noise_fee(CP, 100.0, 1.0, d).gamma > 0.0


class TestClosedFormAgreement:
    def test_reference_instance(self):
        d = binary_mechanism(1.0, REF_SPEC)
        generic = noise_fee(CP, 100.0, 1.0, d).gamma
        closed = noise_fee_closed_form(1e4, 100.0, 1.0, d).gamma
        assert closed == pytest.approx(generic, rel=AGREE_REL)

    def test_random_instances(self):
        # bulk agreement check: the acceptance suite runs the full 1e4 sweep
        rng = np.random.default_rng(2024)
        for _ in range(500):
            level = rng.uniform(1e3, 1e7)
            x = rng.uniform(5.0, 500.0)
            width = rng.uniform(1e-3, 0.2) * x
            lo = rng.uniform(-0.5, 0.5) * width
            spec = PrivacySpec(lo, lo + width, rng.uniform(0.2, 8.0))
            delta = rng.uniform(spec.lower, spec.upper)
            curve = TradingCurve.constant_product(level)
            d = binary_mechanism(delta, spec)
            generic = noise_fee(curve, x, delta, d).gamma
            closed = noise_fee_closed_form(level, x, delta, d).gamma
            assert closed == pytest.approx(generic, rel=AGREE_REL), (
                f"level={level} x={x} delta={delta} spec={spec}"
            )

    def test_corner_instances_stay_tight(self):
        # large eps drags one noise atom within a whisker of zero while the
        # masking width is already tiny against the reserves; naive
        # Y-difference pricing lost half its digits exactly here
        for level, x, width, eps in [
            (1e7, 500.0, 0.5, 8.0),
            (1e7, 500.0, 0.5, 0.2),
            (1e3, 5.0, 0.005, 8.0),
        ]:
            spec = PrivacySpec(0.0, width, eps)
            for delta in (0.0, width / 2.0, width):
                curve = TradingCurve.constant_product(level)
                d = binary_mechanism(delta, spec)
                generic = noise_fee(curve, x, delta, d).gamma
                closed = noise_fee_closed_form(level, x, delta, d).gamma
                assert closed == pytest.approx(generic, rel=1e-12), (
                    f"level={level} x={x} width={width} eps={eps} delta={delta}"
                )

    def test_shape_guard(self):
        with pytest.raises(DistributionShapeError):
            noise_fee_closed_form(1e4, 100.0, 1.0, NoiseDistribution.zero())

    def test_zero_mean_guard(self):
        biased = biased_binary(1.0, REF_SPEC, 0.2)
        with pytest.raises(NonZeroMeanError):
            noise_fee_closed_form(1e4, 100.0, 1.0, biased)


class TestGenericEngine:
    def test_biased_distribution_priced(self):
        # the generic engine prices non-zero-mean noise too
        biased = biased_binary(1.0, REF_SPEC, 0.2)
        got = noise_fee(CP, 100.0, 1.0, biased).gamma
        assert got == pytest.approx(oracle_fee(CP, 100.0, 1.0, biased), rel=ORACLE_REL)

    def test_integral_form_oracle(self):
        # fee = sum p * integral of (P(a) - P(s)) from s to s+eta, via quadrature
        d = binary_mechanism(1.0, REF_SPEC)
        s = 101.0
        total = 0.0
        for atom in d.atoms:
            swing = -integral_price_quadrature(CP, s, s + atom.eta)
            total += atom.p * (swing + atom.eta * CP.spot_price(s))
        got = noise_fee(CP, 100.0, 1.0, d).gamma
        assert got == pytest.approx(total, abs=1e-9)

    def test_lmsr_fee(self):
        curve = TradingCurve.lmsr(1.5)
        spec = PrivacySpec(-0.05, 0.05, 1.0)
        d = binary_mechanism(0.0, spec)
        got = noise_fee(curve, 2.0, 0.0, d).gamma
        assert got == pytest.approx(oracle_fee(curve, 2.0, 0.0, d), rel=ORACLE_REL)
        assert got > 0.0

    def test_domain_violation(self):
        wide = PrivacySpec(-300.0, 300.0, 2.0)
        d = binary_mechanism(0.0, wide)
        # noise atoms push the reserve negative
        with pytest.raises(DomainError):
            noise_fee(CP, 100.0, 0.0, d)

    def test_out_of_domain_atom_is_reported_before_an_lmsr_edge(self):
        # the first atom lands where 1 + z rounds to 0; the second leaves the curve
        curve = TradingCurve.lmsr(1.756)
        s = 1.9105870536889353
        edge = NoiseDistribution.from_pairs([(-0.5, 0.5), (0.5, 0.5)])
        with pytest.raises(DomainError) as err:
            noise_fee(curve, s, 0.0, edge)
        assert str(err.value) == f"reserve {s - 0.5} too close to the LMSR domain edge"
        both = NoiseDistribution.from_pairs([(-0.5, 0.5), (2e12, 0.5)])
        with pytest.raises(DomainError) as err:
            noise_fee(curve, s, 0.0, both)
        assert str(err.value) == (
            f"noised reserve {s + 2e12} (atom eta={2e12}) exits the curve domain"
        )
        with pytest.raises(DomainError) as err:
            noise_fee(curve, -1.0, 0.0, both)
        assert str(err.value).startswith("post-trade reserve x+delta=-1.0 outside")

    def test_lmsr_lowest_reserve_is_an_edge_error(self):
        # at the lowest represented reserve e^-s rounds onto 2 - level
        curve = TradingCurve.lmsr(1.133)
        s = curve.x_lo
        with pytest.raises(DomainError) as err:
            noise_fee(curve, s, 0.0, NoiseDistribution.from_pairs([(0.0, 0.5), (0.1, 0.5)]))
        assert str(err.value) == f"reserve {s} too close to the LMSR domain edge"
        assert noise_fee(curve, s, 0.0, NoiseDistribution.zero()).gamma == 0.0

    def test_non_finite_fee_is_a_domain_error(self):
        # every reserve is on the curve, but the fee overflows float range
        deep = TradingCurve.constant_product(1e308)
        d = binary_mechanism(1e-3, PrivacySpec(0.0, 2e-3, 2.0))
        with pytest.raises(DomainError, match="not finite"):
            noise_fee(deep, 1e-3, 1e-3, d)
        with pytest.raises(DomainError, match="not finite"):
            noise_fee_closed_form(deep.level, 1e-3, 1e-3, d)

    @given(
        x=st.floats(min_value=20.0, max_value=400.0),
        delta=st.floats(min_value=-5.0, max_value=5.0),
        eps=st.floats(min_value=0.3, max_value=6.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_fee_nonnegative_for_zero_mean(self, x, delta, eps):
        # convexity of Y makes the zero-mean fee a Jensen gap
        spec = PrivacySpec(delta - 1.0, delta + 1.0, eps)
        d = binary_mechanism(delta, spec)
        got = noise_fee(CP, x, delta, d).gamma
        assert got >= 0.0, f"x={x} delta={delta} eps={eps} fee={got}"
