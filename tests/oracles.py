"""Independent numerical oracles the tests check the library against."""

from __future__ import annotations

import numpy as np

from noisycfmm import (
    ExcessProfitResult,
    TradingCurve,
    make_random_policy,
    replica_rng,
    run_strategy_once,
    truthful_strategy,
)
from noisycfmm.harness import _summarize


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
