"""Independent numerical oracles the tests check the library against."""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from noisycfmm import (
    AdaptivePolicy,
    ConfigError,
    DomainError,
    ExcessProfitResult,
    ExperimentConfig,
    Family,
    LPNoiseProblem,
    MarketState,
    MisalignedSupportError,
    NoiseLPSolution,
    PLDPReport,
    PrivacySpec,
    StrategyTrace,
    TradingCurve,
    Z99,
    case1_deviation,
    case2_deviation,
    noise_chasing_strategy,
    replica_rng,
    run_adaptive,
    truthful_strategy,
)
from noisycfmm.harness import (
    _POLICY_PERIODS, _POLICY_UNIFORMS, _design, _fee_cost_matrix, _scale_policy, _summarize,
)
from noisycfmm.privacy import MATCH_TOL, MATCH_ULPS, MAX_GRID_SIZE

# pairwise_noise_lp drops its ratio rows above this epsilon: they carry e^eps,
# which overflows near epsilon 709. The tests run it at epsilon <= 8.
_RATIO_EPS_CAP = 50.0


def integral_price_quadrature(
    curve: TradingCurve, a: float, b: float, tol: float = 1e-10
) -> float:
    """Adaptive Simpson evaluation of the spot-price integral.

    Independent cross-check oracle for TradingCurve.integral_price: it
    confirms the exact Y-difference identity without using it.
    """
    if a == b:
        return 0.0
    if a > b:
        return -integral_price_quadrature(curve, b, a, tol)
    curve._require(a, "a")
    curve._require(b, "b")

    f = curve.spot_price

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(
        lo: float, hi: float, flo: float, fmid: float, fhi: float, whole: float,
        eps: float, depth: int,
    ) -> float:
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = f(lm), f(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        half = 0.5 * eps
        return recurse(lo, mid, flo, flm, fmid, left, half, depth - 1) + recurse(
            mid, hi, fmid, frm, fhi, right, half, depth - 1
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 48)


def reversal_gain_oracle(curve: TradingCurve, s: float, eta: float) -> float:
    """TradingCurve.reversal_gain computed from scratch for one (s, eta).

    Every call checks s and, for LMSR, recomputes e^-s and the spot price;
    the library's per-state form (TradingCurve.reversal_gains) computes
    those once per s and must give these bits and these errors.
    """
    curve._require(s, "s")
    if eta == 0.0:
        return 0.0
    curve._require(s + eta, "s+eta")
    if curve.family is Family.CONSTANT_PRODUCT:
        return curve.level * eta * eta / (s * s * (s + eta))
    if curve.family is Family.CONSTANT_SUM:
        return 0.0
    c = 2.0 - curve.level
    v = math.exp(-s)
    beta = v / (c - v)  # spot price at s
    z = -beta * math.expm1(-eta)  # (e^-s - e^-(s+eta)) / (c - e^-s)
    if 1.0 + z <= 0.0:
        raise DomainError(f"reserve {s + eta} too close to the LMSR domain edge")
    # both addends are positive and O(eta^2): no cancellation between them
    return z_minus_log1p_loop(z) + beta * eta_plus_expm1_neg_loop(eta)


# The two series summed until a term is at most 2.3e-17 of the running sum:
# the reference for curve._z_minus_log1p and curve._eta_plus_expm1_neg, which
# add a fixed number of terms and must give these bits.


def z_minus_log1p_loop(z: float) -> float:
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


def eta_plus_expm1_neg_loop(eta: float) -> float:
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


def policy_rng(seed: int, index: int) -> np.random.Generator:
    """Substream that fixes one random policy's parameters (disjoint from replica streams)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(1, index))))


def policy_params(
    seed: int, index: int, base_spec: PrivacySpec
) -> tuple[float, float, float, float, int]:
    """Aggression, offset, width, epsilon and private period of random policy ``index``,
    drawn one numpy call at a time: the reference for harness._policy_table."""
    rng = policy_rng(seed, index)
    draws = [rng.uniform(low, high) for low, high in _POLICY_UNIFORMS]
    return (*_scale_policy(draws, base_spec), int(rng.integers(*_POLICY_PERIODS)))


def make_random_policy(
    seed: int, index: int, base_spec: PrivacySpec, true_price: float
) -> AdaptivePolicy:
    """A parameter-randomized but state-deterministic adaptive policy.

    Parameters (aggression toward the true-price reserve, a constant probe
    offset, masking width, epsilon, and how often to trade privately) are
    drawn once from the policy substream; the policy itself is then a pure
    function of the observed state (the private cadence reads
    ``state.trades``), so replicas stay reproducible and fee policies can be
    compared on identical noise streams.
    """
    aggression, offset, width, epsilon, private_period = policy_params(seed, index, base_spec)

    def policy(state: MarketState) -> tuple[float, PrivacySpec] | None:
        target = state.curve.x_of_price(true_price)
        delta = aggression * (target - state.x) + offset
        cap = 0.25 * state.x  # keep probes small next to the reserve
        delta = min(max(delta, -cap), cap)
        if state.trades % private_period == 0 and width > 0.0:
            half = 0.5 * width
            return delta, PrivacySpec(delta - half, delta + half, epsilon)
        return delta, PrivacySpec(delta, delta, math.inf)

    return policy


def run_strategy_once(
    config: ExperimentConfig, state: MarketState, rng: np.random.Generator | None,
    policy: AdaptivePolicy | None = None,
) -> StrategyTrace:
    """One replica of the experiment through the scalar strategy functions."""
    kind = config.strategy.kind
    factory = config.noise.factory()
    if kind == "truthful":
        return truthful_strategy(state, config.true_price)
    if kind == "noise_chasing":
        return noise_chasing_strategy(
            state, config.true_price, config.privacy, config.strategy.max_rounds, rng,
            fee_policy=config.fee_policy, dist_factory=factory,
        )
    if kind == "case1":
        return case1_deviation(
            state, config.true_price, config.strategy.trade_size, config.privacy, rng,
            fee_policy=config.fee_policy, dist_factory=factory,
        )
    if kind == "case2":
        return case2_deviation(
            state, config.true_price, config.strategy.detour_price,
            config.strategy.trade_size, config.privacy, rng,
            fee_policy=config.fee_policy, dist_factory=factory,
        )
    if kind == "adaptive_random":
        if policy is None:
            raise ValueError("adaptive_random needs a policy; use estimate_excess_profit")
        return run_adaptive(
            policy, state, config.true_price, config.strategy.bound, rng,
            fee_policy=config.fee_policy, dist_factory=factory,
        )
    raise ConfigError(f"unknown strategy kind {kind!r}")


def scalar_excess_profit(config, *, keep_samples: bool = False):
    """estimate_excess_profit as the scalar engine computes it, replica by replica.

    The reference the batched engine is checked against: replica i runs
    run_strategy_once on replica_rng(seed, i), with random policy
    i // per_policy for adaptive_random, and the samples are summarized as
    estimate_excess_profit summarizes them.
    """
    seed = config.require_seed()
    state0 = config.initial_state()
    benchmark = truthful_strategy(state0, config.true_price).total_profit
    kind = config.strategy.kind
    if kind == "adaptive_random":
        n_policies = config.strategy.policies
        per_policy = max(1, config.replicas // n_policies)
        policies = [
            make_random_policy(seed, j, config.privacy, config.true_price)
            for j in range(n_policies)
        ]
    else:
        per_policy, policies = config.replicas, [None]
    samples = np.empty(len(policies) * per_policy)
    for i in range(samples.size):
        trace = run_strategy_once(config, state0, replica_rng(seed, i), policies[i // per_policy])
        samples[i] = trace.total_profit - benchmark
    mean, se, ci = _summarize(samples)
    per_policy_means = None
    if kind == "adaptive_random":
        per_policy_means = tuple(
            float(np.mean(row)) for row in samples.reshape(len(policies), per_policy)
        )
    return ExcessProfitResult(
        kind, config.fee_policy.kind.value, mean, se, ci, samples.size, benchmark,
        per_policy_means, tuple(samples.tolist()) if keep_samples else None,
    )


def numpy_summary(samples: np.ndarray) -> tuple[float, float, tuple[float, float]]:
    """harness._summarize as np.mean and np.std(ddof=1) compute it, the reference of
    its numpy-step form."""
    with np.errstate(all="ignore"):
        mean = float(np.mean(samples))
        se = float(np.std(samples, ddof=1)) / math.sqrt(samples.size) if samples.size > 1 else 0.0
    ci = (mean - Z99 * se, mean + Z99 * se) if samples.size > 1 else (mean, mean)
    for name, value in zip(("mean", "standard error", "CI end", "CI end"), (mean, se, *ci)):
        if not math.isfinite(value):
            raise DomainError(f"excess-profit {name} {value} is not finite")
    return mean, se, ci


def pairwise_noise_lp(problem: LPNoiseProblem) -> NoiseLPSolution:
    """optimize_noise_lp with one ratio row per ordered input pair and output.

    The reference for the envelope form: p(o|v) <= e^eps * p(o|v') for every
    v != v', m(m-1)*n rows over the m*n probabilities alone, in (v, v', o)
    order. The designs are built from the solution as optimize_noise_lp
    builds them, without its validation.
    """
    vins = np.array(problem.input_grid)
    outs = np.array(problem.output_grid)
    m, n = len(vins), len(outs)
    cost = _fee_cost_matrix(problem)
    a_eq = sparse.vstack([
        sparse.kron(sparse.identity(m), np.ones((1, n))),
        sparse.block_diag((outs - vins[:, None])[:, None, :]),
    ], format="csc")
    b_eq = np.concatenate([np.ones(m), np.zeros(m)])
    a_ub = b_ub = None
    if m > 1 and problem.spec.epsilon <= _RATIO_EPS_CAP:
        i, i2 = np.nonzero(~np.eye(m, dtype=bool))
        pairs = np.zeros((i.size, m))
        pairs[np.arange(i.size), i] = 1.0
        pairs[np.arange(i.size), i2] = -math.exp(problem.spec.epsilon)
        a_ub = sparse.kron(pairs, sparse.identity(n), format="csc")
        b_ub = np.zeros(a_ub.shape[0])
    res = linprog(
        (cost / m).ravel(), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(0.0, None), method="highs",
    )
    assert res.success, res.message
    return _design(problem, cost, res.x, str(res.message))


def column_verify_pldp(mechanism, spec, grid_size=101, *, ratio_slack=1e-9) -> PLDPReport:
    """verify_pldp with a numpy grid and one grid_size column per distinct output.

    The reference for the list form: column o holds p(o|v) for every input v,
    0 where v has no output within the match tolerance of o, and its max and
    min give the output's worst ratio. Memory grows as outputs x grid_size.
    The tolerance is MATCH_TOL times min(width, 1), and at least MATCH_ULPS
    ulps of the outputs' largest magnitude.
    """
    if grid_size < 1:
        raise ConfigError(f"grid_size must be >= 1, got {grid_size}")
    if grid_size > MAX_GRID_SIZE:
        raise ConfigError(f"grid_size must be <= {MAX_GRID_SIZE}, got {grid_size}")
    if spec.lower == spec.upper:
        grid = np.array([spec.lower])
    else:
        grid = np.linspace(spec.lower, spec.upper, grid_size)

    entries: list[tuple[float, int, float]] = []
    for i, v in enumerate(grid):
        dist = mechanism(float(v))
        for atom in dist.atoms:
            entries.append((float(v) + atom.eta, i, atom.p))
    entries.sort(key=lambda e: e[0])
    outputs = np.array([e[0] for e in entries])
    width = spec.upper - spec.lower
    largest = float(np.abs(outputs).max())
    tol = max(MATCH_TOL * min(width, 1.0), MATCH_ULPS * float(np.spacing(largest)))

    n = len(grid)
    columns: list[np.ndarray] = []
    anchor = math.nan
    col: np.ndarray | None = None
    filled: set[int] = set()
    for out, i, p in entries:
        if col is None or out - anchor > tol:
            anchor = out
            col = np.zeros(n)
            columns.append(col)
            filled = set()
        if i in filled:
            raise MisalignedSupportError(
                f"input {grid[i]} has two outputs within {tol} of {anchor}; "
                "alignment across inputs is ambiguous"
            )
        filled.add(i)
        col[i] = p

    try:
        bound = math.exp(spec.epsilon)
    except OverflowError:
        bound = math.inf
    max_ratio = 1.0
    for col in columns:
        top = float(col.max())
        if top <= 0.0:
            continue
        bottom = float(col.min())
        ratio = math.inf if bottom <= 0.0 else top / bottom
        if ratio > max_ratio:
            max_ratio = ratio
    finite = math.isfinite(max_ratio)
    satisfied = max_ratio <= bound * (1.0 + ratio_slack) if finite else math.isinf(spec.epsilon)
    return PLDPReport(max_ratio, satisfied, bound, len(grid), len(columns))
