"""Personalized local differential privacy for trade amounts.

A trader asks that their actual trade be statistically indistinguishable,
up to a likelihood-ratio factor exp(epsilon), from every other trade in a
masking interval [lower, upper]. The market maker delivers this by adding a
random noise trade eta right after the user trade, so the adversary's
observable is the post-noise position v + eta. This module holds the privacy
spec, finite-support noise distributions, the two-point mechanism that
achieves the guarantee with zero-mean noise, its mean-shifted variant used
for adversarial experiments, and an exhaustive verifier that checks the
guarantee on the observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .codec import number, pair, parse_fields
from .errors import (
    ConfigError,
    DistributionShapeError,
    InfeasibleBiasError,
    MisalignedSupportError,
    SpecViolationError,
)

if TYPE_CHECKING:
    import numpy as np

# Below this epsilon the two-point atom width blows past any float budget;
# requests are rejected rather than silently degraded.
EPSILON_FLOOR = 1e-6

# Probabilities must sum to one within this before a distribution is accepted.
PROBABILITY_TOL = 1e-12

# pldp_report identifies outputs of different inputs that agree within this times
# min(width, 1) of the masking interval, or within MATCH_ULPS ulps of the largest
# output if that is more.
MATCH_TOL = 1e-9
MATCH_ULPS = 4.0

# verify_pldp's largest grid. Each grid point adds one (output, input,
# probability) entry per atom and puts the entry's input and probability on
# its output's bucket lists: about 220 bytes per atom with its floats. Memory
# grows with the entries alone, however many distinct outputs there are. For
# the two-point mechanism at 10**6 points: 2*10**6 entries in two buckets,
# 0.44 GB peak RSS and 6 s on a 2-core Xeon.
MAX_GRID_SIZE = 10**6


@dataclass(frozen=True, slots=True)
class PrivacySpec:
    """Masking interval [lower, upper] and likelihood-ratio budget epsilon.

    ``weights`` is derived, not set: two_point_weights(epsilon), computed once
    for every two-point mechanism the spec masks.
    """

    lower: float
    upper: float
    epsilon: float
    weights: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise SpecViolationError(
                f"masking interval bounds must be finite, got [{self.lower}, {self.upper}]"
            )
        if self.lower > self.upper:
            raise SpecViolationError(
                f"masking interval needs lower <= upper, got [{self.lower}, {self.upper}]"
            )
        if not math.isfinite(self.upper - self.lower):
            raise SpecViolationError(
                f"masking interval width overflows, got [{self.lower}, {self.upper}]"
            )
        if not self.epsilon > 0.0:  # also rejects NaN
            raise SpecViolationError(f"epsilon must be positive, got {self.epsilon}")
        object.__setattr__(self, "weights", two_point_weights(self.epsilon))

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.upper + self.lower)

    @property
    def degenerate(self) -> bool:
        """True when no masking is actually requested: point interval or epsilon = inf."""
        return self.lower == self.upper or math.isinf(self.epsilon)

    def contains(self, delta: float) -> bool:
        return self.lower <= delta <= self.upper

    def recentered(self, delta: float) -> "PrivacySpec":
        """Same width and epsilon, midpoint moved onto ``delta``."""
        half = 0.5 * self.width
        return PrivacySpec(delta - half, delta + half, self.epsilon)

    def _json_shape(self) -> dict:
        return {"tau": [self.lower, self.upper], "epsilon": self.epsilon}


def _epsilon(value, path: str) -> float:
    return math.inf if value == "inf" else number(value, path)


def parse_privacy(obj: dict, where: str = "privacy") -> PrivacySpec:
    fields = parse_fields(obj, {"tau": pair, "epsilon": _epsilon}, ("tau", "epsilon"), where)
    return PrivacySpec(*fields["tau"], fields["epsilon"])


@dataclass(frozen=True, slots=True)
class NoiseAtom:
    eta: float
    p: float


@dataclass(frozen=True, slots=True, init=False)
class NoiseDistribution:
    """Finite-support distribution over noise trades (in units of X)."""

    atoms: tuple[NoiseAtom, ...]

    def __init__(self, atoms: tuple[NoiseAtom, ...]) -> None:
        if not atoms:
            raise DistributionShapeError("noise distribution needs at least one atom")
        total = 0.0
        for atom in atoms:
            eta, p = atom.eta, atom.p
            if not math.isfinite(eta):
                raise DistributionShapeError(f"atom value must be finite, got {eta}")
            if not -PROBABILITY_TOL <= p <= 1.0 + PROBABILITY_TOL:
                raise DistributionShapeError(f"atom probability {p} outside [0, 1]")
            total += p
        if abs(total - 1.0) > PROBABILITY_TOL * len(atoms):
            raise DistributionShapeError(f"atom probabilities sum to {total}, not 1")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "NoiseDistribution":
        return cls(tuple(NoiseAtom(float(e), float(p)) for e, p in pairs))

    @classmethod
    def zero(cls) -> "NoiseDistribution":
        return cls((NoiseAtom(0.0, 1.0),))

    @property
    def is_zero_noise(self) -> bool:
        return len(self.atoms) == 1 and self.atoms[0].eta == 0.0

    def mean(self) -> float:
        total = 0.0  # a loop, not sum(), which compensates from Python 3.12 on
        for a in self.atoms:
            total += a.p * a.eta
        return total

    def support(self) -> tuple[float, ...]:
        return tuple(a.eta for a in self.atoms)

    def sample(self, rng: np.random.Generator | None) -> float:
        """Draw one noise value. Single-atom distributions consume no randomness,
        so deterministic trades leave a shared random stream untouched."""
        if len(self.atoms) == 1:
            return self.atoms[0].eta
        if rng is None:
            raise ValueError("rng required to sample a distribution with several atoms")
        u = rng.random()
        acc = 0.0
        for atom in self.atoms:
            acc += atom.p
            if u < acc:
                return atom.eta
        return self.atoms[-1].eta

    def _json_shape(self) -> tuple[NoiseAtom, ...]:
        return self.atoms

    @classmethod
    def from_json_obj(cls, obj: Sequence[dict]) -> "NoiseDistribution":
        return cls.from_pairs((d["eta"], d["p"]) for d in obj)


def two_point_weights(epsilon: float) -> tuple[float, float]:
    """t = tanh(epsilon/2) and 1 - t, the second as 2q/(1 + q) with q = e^-epsilon:
    it keeps its digits where 1.0 - t cancels (t is 1.0 from epsilon about 38 on)."""
    q = math.exp(-epsilon)
    return math.tanh(0.5 * epsilon), 2.0 * q / (1.0 + q)


def two_point(delta, lower, upper, weights):
    """Atoms and probabilities (lo, hi, p_lo, p_hi) of binary_mechanism, for floats and
    numpy arrays alike. With (t, 1 - t) = weights = two_point_weights(epsilon), p_lo is
    (1 - t)/2 + t*(upper - delta)/width, exactly (1 - t)/2 at delta = upper, and p_hi
    its mirror. The width, unlike the half-width, is nonzero on every interval."""
    t, rest = weights
    width = upper - lower
    big = 0.5 * width / t
    center = 0.5 * (upper + lower) - delta
    base = 0.5 * rest
    p_lo, p_hi = base + t * ((upper - delta) / width), base + t * ((delta - lower) / width)
    return center - big, center + big, p_lo, p_hi


def mean_tilt(lo, hi, mu):
    """Probabilities (p_lo, p_hi) that give the atoms lo < hi the mean mu; in [0, 1]
    only for mu in [lo, hi]. Floats or numpy arrays alike."""
    p_hi = (mu - lo) / (hi - lo)
    return 1.0 - p_hi, p_hi


def binary_mechanism(delta: float, spec: PrivacySpec) -> NoiseDistribution:
    """Two-point noise masking ``delta`` within the spec's interval.

    Writing m for the interval midpoint, w for its half-width and
    t = tanh(epsilon/2), the noise takes the values m - delta -/+ w/t with
    probabilities (1 - t)/2 + t*(upper - delta)/(2w) and
    (1 - t)/2 + t*(delta - lower)/(2w): (1 -/+ d*t)/2 for the normalized
    position d = (delta - m)/w, written without the cancellation of 1 - d*t
    as t rounds toward 1. Both post-noise positions delta + eta land on the
    input-independent landmarks m -/+ w/t, which is what makes the guarantee
    hold with the ratio exactly exp(epsilon) at the interval endpoints, and
    the mean is identically zero. A degenerate spec yields the zero atom.
    """
    atoms = _two_point_atoms(delta, spec)
    if atoms is None:
        return NoiseDistribution.zero()
    lo, hi, p_lo, p_hi = atoms
    return NoiseDistribution((NoiseAtom(lo, p_lo), NoiseAtom(hi, p_hi)))


def _two_point_atoms(delta: float, spec: PrivacySpec) -> tuple | None:
    """binary_mechanism's checks, then two_point's atoms and probabilities, or None
    for a degenerate spec. Reads each field of spec once."""
    lower, upper, epsilon = spec.lower, spec.upper, spec.epsilon
    if not lower <= delta <= upper:  # spec.contains
        raise SpecViolationError(f"trade {delta} outside masking interval [{lower}, {upper}]")
    if lower == upper or math.isinf(epsilon):  # spec.degenerate
        return None
    if epsilon < EPSILON_FLOOR:
        raise SpecViolationError(f"epsilon {epsilon} below the supported floor {EPSILON_FLOOR}")
    return two_point(delta, lower, upper, spec.weights)


def biased_binary(delta: float, spec: PrivacySpec, mu: float) -> NoiseDistribution:
    """Two-point noise on the same atoms as binary_mechanism but with mean mu.

    Solves the 2x2 system (probabilities sum to one, mean equals mu); only
    means inside the atom span are expressible. Used to build the adversarial
    counterexamples: shifting the mean breaks priceability. Raises what
    binary_mechanism(delta, spec) raises before any error of its own.
    """
    atoms = _two_point_atoms(delta, spec)
    if atoms is None:
        if mu != 0.0:
            raise InfeasibleBiasError(
                f"degenerate spec admits only zero-mean noise, requested mean {mu}"
            )
        return NoiseDistribution.zero()
    lo, hi = atoms[0], atoms[1]
    for eta in (lo, hi):  # what binary_mechanism's NoiseDistribution refuses
        if not math.isfinite(eta):
            raise DistributionShapeError(f"atom value must be finite, got {eta}")
    if lo == hi:  # a half-width that underflows to 0 leaves no span to tilt over
        raise DistributionShapeError(f"the two atoms coincide at {lo}; a mean tilt needs two")
    p_lo, p_hi = mean_tilt(lo, hi, mu)
    if not 0.0 <= p_hi <= 1.0:
        raise InfeasibleBiasError(
            f"mean {mu} outside the atom span [{lo}, {hi}] of the masking interval"
        )
    return NoiseDistribution((NoiseAtom(lo, p_lo), NoiseAtom(hi, p_hi)))


def biased_factory(mu: float) -> Callable[[float, PrivacySpec], NoiseDistribution]:
    """Noise factory that biases masked trades and leaves exact trades exact.

    Strategies interleave masked trades with non-private corrections carrying
    degenerate specs; a bias can only live where there is noise to tilt.
    """

    def factory(delta: float, spec: PrivacySpec) -> NoiseDistribution:
        if spec.degenerate:
            return binary_mechanism(delta, spec)
        return biased_binary(delta, spec, mu)

    return factory


@dataclass(frozen=True, slots=True)
class PLDPReport:
    """Outcome of an exhaustive guarantee check over an input grid."""

    max_ratio: float
    satisfied: bool
    bound: float
    grid_size: int
    n_outputs: int


def verify_pldp(
    mechanism: Callable[[float], NoiseDistribution],
    spec: PrivacySpec,
    grid_size: int = 101,
    *,
    ratio_slack: float = 1e-9,
) -> PLDPReport:
    """Check the likelihood-ratio guarantee of a noise mechanism on a grid.

    ``mechanism`` maps an input trade v to its noise distribution; it is
    called once per point of a grid_size-point linspace over the masking
    interval (one point when the interval is a point), and pldp_report
    checks the distributions it returns against each other.
    """
    if grid_size < 1:
        raise ConfigError(f"grid_size must be >= 1, got {grid_size}")
    if grid_size > MAX_GRID_SIZE:
        raise ConfigError(f"grid_size must be <= {MAX_GRID_SIZE}, got {grid_size}")
    grid = [float(spec.lower)] if spec.lower == spec.upper else _linspace(
        spec.lower, spec.upper, grid_size
    )
    return pldp_report(spec, grid, map(mechanism, grid), ratio_slack)


def pldp_report(
    spec: PrivacySpec, inputs: Sequence[float], dists: Iterable[NoiseDistribution], ratio_slack: float
) -> PLDPReport:
    """Check the likelihood-ratio guarantee of the noise dists[k] on input inputs[k].

    Compares the induced distributions of the adversary-visible post-noise
    position v + eta across all pairs of inputs; dists may be an iterator,
    read one distribution at a time. Outputs from different inputs are
    identified when they agree within MATCH_TOL, scaled as its comment says;
    two outputs of a single input falling into one bucket make the alignment
    ambiguous and raise MisalignedSupportError. Ratio conventions: 0/0 counts
    as 1, positive/0 as infinity. The guarantee is satisfied when the worst
    ratio is at most exp(epsilon), with ``ratio_slack`` relative headroom for
    float rounding.
    An exp(epsilon) beyond float range is an infinite bound, which an
    infinite ratio still breaks unless epsilon itself is infinite.
    """
    # entry list: (observable output, input index, probability), sorted by
    # output; the sort is stable, so equal outputs keep their input order
    entries: list[tuple[float, int, float]] = []
    for i, (v, dist) in enumerate(zip(inputs, dists, strict=True)):
        for atom in dist.atoms:
            entries.append((v + atom.eta, i, atom.p))
    entries.sort(key=itemgetter(0))
    big = max(abs(entries[0][0]), abs(entries[-1][0])) if entries else 0.0
    tol = max(MATCH_TOL * min(spec.width, 1.0), MATCH_ULPS * math.ulp(big))

    # a bucket holds the inputs and probabilities of the entries from the
    # output that opens it to the last output within tol of that one
    buckets: list[tuple[float, list[int], list[float]]] = []
    anchor = math.nan
    members: list[int] = []
    probs: list[float] = []
    for out, i, p in entries:
        if not buckets or out - anchor > tol:
            anchor, members, probs = out, [i], [p]
            buckets.append((anchor, members, probs))
        else:
            members.append(i)
            probs.append(p)

    n = len(inputs)
    try:
        bound = math.exp(spec.epsilon)
    except OverflowError:
        bound = math.inf
    max_ratio = 1.0
    for anchor, members, probs in buckets:
        if len(set(members)) < len(members):
            _raise_misaligned(inputs, anchor, members, tol)
        top, bottom = max(probs), min(probs)
        if len(probs) < n:  # the inputs this output misses give it probability 0
            top, bottom = max(top, 0.0), min(bottom, 0.0)
        if top <= 0.0:
            continue  # all-zero bucket: every pairwise ratio is 0/0 = 1
        ratio = math.inf if bottom <= 0.0 else top / bottom
        if ratio > max_ratio:
            max_ratio = ratio
    finite = math.isfinite(max_ratio)
    satisfied = max_ratio <= bound * (1.0 + ratio_slack) if finite else math.isinf(spec.epsilon)
    return PLDPReport(
        max_ratio=max_ratio,
        satisfied=satisfied,
        bound=bound,
        grid_size=n,
        n_outputs=len(buckets),
    )


def _linspace(lower: float, upper: float, n: int) -> list[float]:
    """numpy.linspace(lower, upper, n) in Python floats, bit for bit.

    numpy adds lower to k * step, with step = (upper - lower)/(n - 1), and
    sets the last point to upper; when step underflows to zero it scales
    k/(n - 1) by the width instead.
    """
    if n == 1:
        return [lower + 0.0]  # numpy's 0 * width + lower: -0.0 becomes 0.0
    div = n - 1
    width = upper - lower
    step = width / div
    if step == 0.0:
        grid = [lower + k / div * width for k in range(div)]
    else:
        grid = [lower + k * step for k in range(div)]
    grid.append(float(upper))
    return grid


def _raise_misaligned(
    inputs: Sequence[float], anchor: float, members: list[int], tol: float
) -> None:
    """Name the first input of a bucket that already has an output there."""
    seen: set[int] = set()
    for i in members:
        if i in seen:
            raise MisalignedSupportError(
                f"input {inputs[i]} has two outputs within {tol} of {anchor}; "
                "alignment across inputs is ambiguous"
            )
        seen.add(i)
