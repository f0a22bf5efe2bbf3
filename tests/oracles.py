"""Independent numerical oracles the tests check the library against."""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from noisycfmm import (
    ConfigError,
    ExcessProfitResult,
    LPNoiseProblem,
    MisalignedSupportError,
    NoiseLPSolution,
    PLDPReport,
    TradingCurve,
    make_random_policy,
    replica_rng,
    run_strategy_once,
    truthful_strategy,
)
from noisycfmm.harness import _RATIO_EPS_CAP, _design, _fee_cost_matrix, _summarize
from noisycfmm.privacy import MATCH_TOL, MAX_GRID_SIZE


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
    per_policy_means = None
    if kind == "adaptive_random":
        per_policy_means = tuple(
            float(np.mean(row)) for row in samples.reshape(len(policies), per_policy)
        )
    mean, se, ci = _summarize(samples)
    return ExcessProfitResult(
        kind, config.fee_policy.kind.value, mean, se, ci, samples.size, benchmark,
        per_policy_means, tuple(samples.tolist()) if keep_samples else None,
    )


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
    0 where v has no output within MATCH_TOL of o, and its max and min give
    the output's worst ratio. Memory grows as outputs x grid_size.
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

    n = len(grid)
    columns: list[np.ndarray] = []
    anchor = math.nan
    col: np.ndarray | None = None
    filled: set[int] = set()
    for out, i, p in entries:
        if col is None or out - anchor > MATCH_TOL:
            anchor = out
            col = np.zeros(n)
            columns.append(col)
            filled = set()
        if i in filled:
            raise MisalignedSupportError(
                f"input {grid[i]} has two outputs within {MATCH_TOL} of {anchor}; "
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
