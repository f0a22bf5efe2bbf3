"""Masking mechanism: atom placement, zero mean, likelihood-ratio guarantee."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import column_verify_pldp

from noisycfmm import (
    EPSILON_FLOOR,
    DistributionShapeError,
    InfeasibleBiasError,
    MisalignedSupportError,
    NoiseAtom,
    NoiseDistribution,
    NoisyCfmmError,
    PrivacySpec,
    SpecViolationError,
    biased_binary,
    biased_factory,
    binary_mechanism,
    to_json,
    verify_pldp,
)
from noisycfmm.privacy import pldp_report, two_point_weights

# Atom positions and probabilities are closed-form; mean() is a two-term sum
# whose cancellation error scales with the atom magnitude, so the zero-mean
# bound is stated relative to the interval width with moderate epsilons.
ZERO_MEAN_TOL = 1e-12
# Ratio extremes are achieved exactly at interval endpoints.
RATIO_TOL = 1e-6

REF_SPEC = PrivacySpec(0.0, 2.0, 2.0)


def spec_strategy(min_eps=0.05, max_eps=20.0):
    return st.tuples(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=1e-3, max_value=40.0),
        st.floats(min_value=min_eps, max_value=max_eps),
        st.floats(min_value=0.0, max_value=1.0),
    ).map(
        lambda t: (PrivacySpec(t[0], t[0] + t[1], t[2]), t[0] + t[3] * t[1])
    )


class TestPrivacySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacySpec(2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            PrivacySpec(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            PrivacySpec(0.0, 1.0, -2.0)
        with pytest.raises(ValueError):
            PrivacySpec(math.nan, 1.0, 1.0)
        with pytest.raises(SpecViolationError, match="width overflows"):
            PrivacySpec(-1e308, 1e308, 2.0)

    def test_degenerate_forms(self):
        assert PrivacySpec(1.0, 1.0, 2.0).degenerate
        assert PrivacySpec(0.0, 2.0, math.inf).degenerate
        assert not REF_SPEC.degenerate

    def test_recentered(self):
        moved = REF_SPEC.recentered(10.0)
        assert moved.width == REF_SPEC.width
        assert moved.epsilon == REF_SPEC.epsilon
        assert moved.midpoint == 10.0

    def test_json_round_trip(self):
        obj = to_json(REF_SPEC)
        assert obj == {"tau": [0.0, 2.0], "epsilon": 2.0}

    @given(
        lower=st.floats(-50.0, 50.0),
        width=st.floats(0.0, 40.0),
        epsilon=st.one_of(
            st.floats(1e-6, 1e3), st.sampled_from([1e-6, 709.0, 1e3, math.inf])
        ),
    )
    @example(lower=0.0, width=2.0, epsilon=2.0)
    @settings(max_examples=200, deadline=None)
    def test_weights_are_two_point_weights_and_nothing_else(self, lower, width, epsilon):
        upper = lower + width
        spec = PrivacySpec(lower, upper, epsilon)
        assert [w.hex() for w in spec.weights] == [w.hex() for w in two_point_weights(epsilon)]
        other = 2.0 * epsilon if math.isfinite(epsilon) else 1.0
        moved = dataclasses.replace(spec, epsilon=other)
        assert moved.weights == two_point_weights(other)
        # the derived field is no part of the spec's value: the forms of a
        # three-field spec
        assert repr(spec) == f"PrivacySpec(lower={lower!r}, upper={upper!r}, epsilon={epsilon!r})"
        assert hash(spec) == hash((lower, upper, epsilon))
        assert spec == PrivacySpec(lower, upper, epsilon)
        assert spec != moved
        assert to_json(spec) == {
            "tau": [lower, upper], "epsilon": "inf" if math.isinf(epsilon) else epsilon
        }


class TestBinaryMechanism:
    def test_reference_atoms(self):
        # midpoint trade: symmetric atoms at +-w/tanh(eps/2), equal mass
        d = binary_mechanism(1.0, REF_SPEC)
        big = 1.0 / math.tanh(1.0)
        assert [a.eta for a in d.atoms] == pytest.approx([-big, big], rel=1e-15)
        assert [a.p for a in d.atoms] == [0.5, 0.5]

    def test_endpoint_atoms(self):
        # trade at the interval's upper end: mass tilts to the small-noise atom
        d = binary_mechanism(2.0, REF_SPEC)
        t = math.tanh(1.0)
        big = 1.0 / t
        assert d.atoms[0].eta == pytest.approx(-1.0 - big, rel=1e-15)
        assert d.atoms[1].eta == pytest.approx(-1.0 + big, rel=1e-15)
        assert d.atoms[0].p == pytest.approx(0.11920292202211757, rel=1e-12)
        assert d.atoms[1].p == pytest.approx(0.8807970779778824, rel=1e-12)
        # probability ratio between endpoint trades is exactly the privacy bound
        assert d.atoms[1].p / d.atoms[0].p == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_landmarks_do_not_depend_on_input(self):
        # post-noise positions delta+eta are a function of the spec alone;
        # this is what makes the guarantee verifiable on a shared support
        lands = {
            round(delta + a.eta, 12)
            for delta in (0.0, 0.3, 1.0, 1.7, 2.0)
            for a in binary_mechanism(delta, REF_SPEC).atoms
        }
        assert len(lands) == 2

    def test_degenerate_is_exact(self):
        d = binary_mechanism(1.0, PrivacySpec(1.0, 1.0, 2.0))
        assert d.is_zero_noise
        d = binary_mechanism(1.0, PrivacySpec(0.0, 2.0, math.inf))
        assert d.is_zero_noise

    def test_outside_interval_rejected(self):
        # biased_binary makes binary_mechanism's checks, with its messages
        for mechanism in (binary_mechanism, lambda v, spec: biased_binary(v, spec, 0.1)):
            with pytest.raises(SpecViolationError) as err:
                mechanism(3.0, REF_SPEC)
            assert str(err.value) == "trade 3.0 outside masking interval [0.0, 2.0]"
            with pytest.raises(SpecViolationError) as err:
                mechanism(math.nan, PrivacySpec(1.0, 1.0, 2.0))
            assert str(err.value) == "trade nan outside masking interval [1.0, 1.0]"

    def test_epsilon_floor(self):
        for mechanism in (binary_mechanism, lambda v, spec: biased_binary(v, spec, 0.1)):
            with pytest.raises(SpecViolationError) as err:
                mechanism(1.0, PrivacySpec(0.0, 2.0, 0.5 * EPSILON_FLOOR))
            assert str(err.value) == (
                f"epsilon {0.5 * EPSILON_FLOOR} below the supported floor {EPSILON_FLOOR}"
            )

    @given(pair=spec_strategy())
    @settings(max_examples=100, deadline=None)
    def test_zero_mean(self, pair):
        spec, delta = pair
        d = binary_mechanism(delta, spec)
        assert abs(d.mean()) <= ZERO_MEAN_TOL * max(1.0, spec.width), (
            f"mean {d.mean()} for delta={delta} spec={spec}"
        )

    @given(pair=spec_strategy())
    @settings(max_examples=50, deadline=None)
    def test_probabilities_valid(self, pair):
        spec, delta = pair
        d = binary_mechanism(delta, spec)
        assert all(0.0 <= a.p <= 1.0 for a in d.atoms)
        assert sum(a.p for a in d.atoms) == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_single_atom_consumes_no_randomness(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        NoiseDistribution.zero().sample(rng)
        assert rng.bit_generator.state == before

    def test_two_atom_needs_rng(self):
        d = binary_mechanism(1.0, REF_SPEC)
        with pytest.raises(ValueError):
            d.sample(None)

    def test_frequencies(self):
        d = binary_mechanism(2.0, REF_SPEC)  # probs (0.8808, 0.1192)
        rng = np.random.default_rng(123)
        draws = [d.sample(rng) for _ in range(20000)]
        hi_share = np.mean([x == d.atoms[1].eta for x in draws])
        assert hi_share == pytest.approx(d.atoms[1].p, abs=0.01)

    def test_same_seed_same_draws(self):
        d = binary_mechanism(0.7, REF_SPEC)
        a = [d.sample(np.random.default_rng(5)) for _ in range(3)]
        b = [d.sample(np.random.default_rng(5)) for _ in range(3)]
        assert a == b


class TestBiasedBinary:
    def test_spec_fixture(self):
        # the adversarial fixture: atoms +-1 with probabilities 0.6/0.4
        d = NoiseDistribution.from_pairs([(-1.0, 0.4), (1.0, 0.6)])
        assert d.mean() == pytest.approx(0.2, rel=1e-15)

    def test_requested_mean_is_hit(self):
        d = biased_binary(1.0, REF_SPEC, 0.25)
        assert d.mean() == pytest.approx(0.25, rel=1e-12)
        assert d.support() == binary_mechanism(1.0, REF_SPEC).support()

    def test_infeasible_mean(self):
        big = 1.0 / math.tanh(1.0)
        lo, hi = binary_mechanism(1.0, REF_SPEC).support()
        with pytest.raises(InfeasibleBiasError) as err:
            biased_binary(1.0, REF_SPEC, big * 1.01)
        assert str(err.value) == (
            f"mean {big * 1.01} outside the atom span [{lo}, {hi}] of the masking interval"
        )
        with pytest.raises(InfeasibleBiasError) as err:
            biased_binary(1.0, PrivacySpec(1.0, 1.0, 2.0), 0.1)
        assert str(err.value) == "degenerate spec admits only zero-mean noise, requested mean 0.1"
        assert biased_binary(1.0, PrivacySpec(1.0, 1.0, 2.0), 0.0).is_zero_noise

    def test_overflowing_atom_raises_what_binary_mechanism_raises(self):
        # half-width / tanh(epsilon/2) overflows: binary_mechanism's distribution
        # refuses the infinite atom before any mean could be tilted onto it
        spec = PrivacySpec(0.0, 1e303, 2.0 * EPSILON_FLOOR)
        with pytest.raises(DistributionShapeError) as want:
            binary_mechanism(1.0, spec)
        assert str(want.value) == "atom value must be finite, got -inf"
        for mu in (0.0, 1.0, math.nan):
            with pytest.raises(DistributionShapeError) as err:
                biased_binary(1.0, spec, mu)
            assert str(err.value) == str(want.value)

    def test_coincident_atoms_admit_no_tilt(self):
        # the half-width of a one-ulp interval rounds to 0: both atoms sit at 0
        spec = PrivacySpec(0.0, 5e-324, 2.0)
        assert binary_mechanism(0.0, spec).support() == (0.0, 0.0)
        for mu in (0.0, 0.1):
            with pytest.raises(DistributionShapeError) as err:
                biased_binary(0.0, spec, mu)
            assert str(err.value) == "the two atoms coincide at 0.0; a mean tilt needs two"

    def test_factory_spares_exact_trades(self):
        f = biased_factory(0.3)
        assert f(5.0, PrivacySpec(5.0, 5.0, 2.0)).is_zero_noise
        assert f(1.0, REF_SPEC).mean() == pytest.approx(0.3, rel=1e-12)


class TestDistributionValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            NoiseDistribution.from_pairs([(-1.0, 0.4), (1.0, 0.4)])

    def test_negative_probability(self):
        with pytest.raises(ValueError):
            NoiseDistribution.from_pairs([(-1.0, -0.1), (1.0, 1.1)])

    def test_checks_in_order(self):
        # no atoms, then atom by atom a non-finite value or a probability
        # outside [0, 1], then the sum; dataclasses.replace checks as well
        cases = [
            ((), "noise distribution needs at least one atom"),
            ((NoiseAtom(math.nan, 2.0),), "atom value must be finite, got nan"),
            ((NoiseAtom(0.0, 2.0), NoiseAtom(math.inf, 0.5)), "atom probability 2.0 outside [0, 1]"),
            ((NoiseAtom(0.0, 0.5), NoiseAtom(1.0, 0.4)), "atom probabilities sum to 0.9, not 1"),
        ]
        for atoms, message in cases:
            with pytest.raises(DistributionShapeError) as got:
                NoiseDistribution(atoms)
            assert str(got.value) == message
            with pytest.raises(DistributionShapeError) as got:
                dataclasses.replace(NoiseDistribution.zero(), atoms=atoms)
            assert str(got.value) == message
        assert NoiseDistribution(atoms=(NoiseAtom(0.0, 1.0),)) == NoiseDistribution.zero()

    def test_json_round_trip(self):
        d = binary_mechanism(1.3, REF_SPEC)
        again = NoiseDistribution.from_json_obj(to_json(d))
        assert again.support() == d.support()
        assert [a.p for a in again.atoms] == [a.p for a in d.atoms]


class TestVerifyPLDP:
    def test_reference_tightness(self):
        report = verify_pldp(lambda v: binary_mechanism(v, REF_SPEC), REF_SPEC, 101)
        assert report.satisfied
        assert report.max_ratio == pytest.approx(math.exp(2.0), abs=RATIO_TOL)

    @given(pair=spec_strategy(min_eps=0.1, max_eps=6.0))
    # a narrow interval far from zero: delta - midpoint cancels at the endpoints
    @example(pair=(PrivacySpec(32.0, 32.001, 6.0), 32.0))
    @settings(max_examples=30, deadline=None)
    def test_tight_across_specs(self, pair):
        spec, _ = pair
        report = verify_pldp(lambda v: binary_mechanism(v, spec), spec, 21)
        assert report.satisfied, f"spec={spec} ratio={report.max_ratio}"
        assert report.max_ratio == pytest.approx(math.exp(spec.epsilon), rel=1e-9)

    @given(
        width=st.floats(1e-300, 1e3),
        epsilon=st.floats(0.1, 50.0),
        grid_size=st.sampled_from([2, 11, 101]),
    )
    @example(width=5e-10, epsilon=2.0, grid_size=11)
    @example(width=1e-300, epsilon=50.0, grid_size=101)
    @settings(max_examples=200, deadline=None)
    def test_narrow_intervals_pass(self, width, epsilon, grid_size):
        # the outputs' match tolerance shrinks with the width: no interval is too
        # narrow for the two-point mechanism's landmarks to line up
        spec = PrivacySpec(0.0, width, epsilon)
        report = verify_pldp(lambda v: binary_mechanism(v, spec), spec, grid_size)
        assert report.satisfied, f"spec={spec} ratio={report.max_ratio}"
        assert report.n_outputs == 2

    # 1 - tanh(eps/2) as a difference cancelled as tanh rounded toward 1: an
    # endpoint's low atom kept only its last bits (ratio off, eps 35 and 36)
    # or none (infinite ratio, eps 40 on); e^710 overflows, and so does the ratio
    @pytest.mark.parametrize("tau", [(0.0, 2.0), (32.0, 32.001)])
    @pytest.mark.parametrize(
        "epsilon", [2.0, 30.0, 35.0, 36.0, 37.0, 40.0, 100.0, 700.0, 709.0, 710.0]
    )
    def test_tight_at_large_epsilon(self, tau, epsilon):
        spec = PrivacySpec(*tau, epsilon)
        report = verify_pldp(lambda v: binary_mechanism(v, spec), spec, 101)
        assert report.satisfied is (epsilon < 710.0), report
        if epsilon < 710.0:
            assert report.max_ratio == pytest.approx(math.exp(epsilon), rel=1e-9)

    def test_degenerate_spec_trivially_private(self):
        spec = PrivacySpec(1.0, 1.0, 2.0)
        report = verify_pldp(lambda v: binary_mechanism(v, spec), spec, 11)
        assert report.satisfied
        assert report.max_ratio == 1.0

    def test_violation_detected(self):
        # a mechanism that leaks: tighter probabilities than epsilon=2 allows
        cheat_spec = PrivacySpec(0.0, 2.0, 5.0)

        def leaky(v):
            return biased_binary(v, cheat_spec, 0.0)

        report = verify_pldp(leaky, PrivacySpec(0.0, 2.0, 0.5), 21)
        assert not report.satisfied

    def test_drifting_support_is_a_leak(self):
        # input-dependent landmarks give away the input: infinite ratio
        def drifting(v):
            return NoiseDistribution.from_pairs([(-1.0 - v * 1e-5, 0.5), (1.0, 0.5)])

        report = verify_pldp(drifting, REF_SPEC, 21)
        assert not report.satisfied
        assert math.isinf(report.max_ratio)

    def test_ambiguous_support_rejected(self):
        # two atoms of one input inside the matching tolerance cannot be bucketed
        def ambiguous(v):
            return NoiseDistribution.from_pairs([(0.0, 0.5), (1e-12, 0.5)])

        with pytest.raises(MisalignedSupportError):
            verify_pldp(ambiguous, REF_SPEC, 5)

    def test_rows_need_one_distribution_per_input(self):
        dists = [binary_mechanism(v, REF_SPEC) for v in (0.0, 2.0)]
        with pytest.raises(ValueError, match="zip"):
            pldp_report(REF_SPEC, (0.0, 1.0, 2.0), dists, 1e-9)

    def test_infinite_epsilon_bound(self):
        spec = PrivacySpec(0.0, 2.0, math.inf)
        report = verify_pldp(lambda v: binary_mechanism(v, spec), spec, 11)
        assert report.satisfied

    @pytest.mark.parametrize("epsilon", [709.0, 710.0, 1000.0, 1e308])
    def test_overflowing_bound_is_infinite(self, epsilon):
        # the endpoint ratio is 1/q with q = e^-eps: from eps ~ 709.78 on it
        # overflows with e^eps (and q is 0 from eps ~ 745 on); below, it is finite
        spec = PrivacySpec(0.0, 2.0, epsilon)
        report = verify_pldp(lambda v: binary_mechanism(v, spec), spec, 11)
        finite = epsilon == 709.0
        assert report.bound == (math.exp(709.0) if finite else math.inf)
        assert math.isinf(report.max_ratio) is not finite
        assert report.satisfied is finite

    def test_infinite_ratio_passes_only_infinite_epsilon(self):
        def drifting(v):
            return NoiseDistribution.from_pairs([(-1.0 - v * 1e-5, 0.5), (1.0, 0.5)])

        for epsilon, satisfied in ((1000.0, False), (math.inf, True)):
            report = verify_pldp(drifting, PrivacySpec(0.0, 2.0, epsilon), 21)
            assert math.isinf(report.max_ratio)
            assert report.satisfied is satisfied

    def test_outputs_that_never_line_up_stay_small(self):
        # every input's outputs open buckets of their own: 2 * 10**4 of them
        def shifting(v):
            return NoiseDistribution.from_pairs([(-1.0 - v * 1e-5, 0.5), (1.0 + v, 0.5)])

        tracemalloc.start()
        try:
            report = verify_pldp(shifting, REF_SPEC, 10**4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isinf(report.max_ratio)
        assert report.n_outputs == 2 * 10**4
        assert peak < 20 * 2**20


def zero_atom_mechanism(spec):
    """The two-point mechanism plus atoms of probability 0: one whose output
    every input shares, and one that only the upper half of inputs has."""

    def mechanism(v):
        atoms = binary_mechanism(v, spec).atoms + (NoiseAtom(spec.upper + 1.0 - v, 0.0),)
        if v > spec.midpoint:
            atoms += (NoiseAtom(spec.upper + 2.0 - v, 0.0),)
        return NoiseDistribution(atoms)

    return mechanism


def biased_mechanism(spec, share):
    """biased_binary at a mean every input can reach: share of the atoms' headroom."""

    def mechanism(v):
        lo, hi = binary_mechanism(v, spec).support()
        return biased_binary(v, spec, share * (0.5 * (hi - lo) - spec.width / 2.0))

    return mechanism


MECHANISMS = {
    "binary": lambda spec, share: lambda v: binary_mechanism(v, spec),
    "biased_binary": biased_mechanism,
    "never_lined_up": lambda spec, share: lambda v: NoiseDistribution.from_pairs(
        [(-1.0 - v * share * 1e-5, 0.5), (1.0, 0.5)]
    ),
    "zero_atoms": lambda spec, share: zero_atom_mechanism(spec),
    "ambiguous": lambda spec, share: lambda v: NoiseDistribution.from_pairs(
        [(0.0, 0.5), (share * 1e-12, 0.5)]
    ),
}


def outcome(verify, mechanism, spec, grid_size):
    try:
        return verify(mechanism, spec, grid_size)
    except NoisyCfmmError as e:
        return type(e), str(e)


@given(
    pair=spec_strategy(min_eps=0.1, max_eps=8.0),
    kind=st.sampled_from(sorted(MECHANISMS)),
    share=st.floats(min_value=-1.0, max_value=1.0),
    grid_size=st.sampled_from([1, 2, 101]),
)
@example(pair=(PrivacySpec(32.0, 32.001, 6.0), 32.0), kind="binary", share=0.0, grid_size=101)
@example(pair=(PrivacySpec(1.0, 1.0, 2.0), 1.0), kind="zero_atoms", share=0.0, grid_size=101)
@settings(max_examples=200, deadline=None)
def test_verify_pldp_matches_the_column_oracle(pair, kind, share, grid_size):
    spec, _ = pair
    mechanism = MECHANISMS[kind](spec, share)
    got = outcome(verify_pldp, mechanism, spec, grid_size)
    want = outcome(column_verify_pldp, mechanism, spec, grid_size)
    assert repr(got) == repr(want)


@given(
    ends=st.tuples(
        st.floats(min_value=-1e300, max_value=1e300),
        st.floats(min_value=-1e300, max_value=1e300),
    ).filter(lambda t: t[0] != t[1]),
    grid_size=st.integers(min_value=1, max_value=2000),
)
@example(ends=(-0.0, 3.0), grid_size=1)
@example(ends=(0.0, 5e-324), grid_size=7)
@settings(max_examples=200, deadline=None)
def test_grid_is_numpy_linspace_bit_for_bit(ends, grid_size):
    lower, upper = sorted(ends)
    seen = []

    def recording(v):
        seen.append(v)
        return NoiseDistribution.zero()

    try:
        verify_pldp(recording, PrivacySpec(lower, upper, 2.0), grid_size)
    except MisalignedSupportError:
        pass  # grid points within MATCH_TOL of each other; the grid is already seen
    want = np.linspace(lower, upper, grid_size).tolist()
    assert [v.hex() for v in seen] == [v.hex() for v in want]
