"""Tracing installed from outside noisycfmm, for the benchmark's traced run.

Wrappers replace public functions at every name a caller looks up: module
globals of each noisycfmm module, default arguments that captured a function
(``execute_trade(..., dist_factory=binary_mechanism)``), and methods on the
classes. Coarse boundaries record one span each, with its parent, kept in
memory and written out at the end. Fine-grained curve, privacy and support
calls (millions in a run) only add to a per-name call count and self time.

Self time is duration minus the time covered by traced children, so the self
times of all names add up to the traced wall time.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import types
from pathlib import Path
from time import perf_counter

import noisycfmm
from noisycfmm import HiddenAccountError

MODULES = ("curve", "privacy", "fee", "market", "strategies", "harness", "cli")

CURVE_METHODS = (
    "natural_bounds", "contains", "y_of_x", "spot_price", "x_of_price",
    "integral_price", "reversal_gain", "liquidity",
)
STRATEGIES = (
    "truthful_strategy", "noise_chasing_strategy", "case1_deviation", "case2_deviation",
    "run_adaptive",
)

# (module, function, span?) wrapped wherever the function object is referenced
FUNCTIONS = (
    ("privacy", "binary_mechanism", False),
    ("privacy", "biased_binary", False),
    ("privacy", "verify_pldp", False),
    ("market", "support_check", False),
    ("fee", "noise_fee", True),
    ("market", "execute_trade", True),
    ("harness", "replica_rng", True),
    ("harness", "estimate_excess_profit", True),
    ("harness", "reproduce_deviation_theorem", True),
    ("harness", "optimize_noise_lp", True),
    ("harness", "validate_lp_solution", True),
    ("harness", "linprog", True),
    ("cli", "main", True),
) + tuple(("strategies", name, True) for name in STRATEGIES)


class Tracer:
    def __init__(self) -> None:
        self.stage = ""  # label the benchmark sets, e.g. the arm being run
        self.stack: list[list[float]] = []  # open calls: [start, time covered by children]
        self.agg: dict[str, list] = collections.defaultdict(lambda: [0, 0.0])
        self.spans: list[tuple] = []  # (id, parent, name, stage, start, end, self_s)
        self.notes: list[tuple] = []  # (stage, what, value) from argument/result hooks
        self.current = -1  # innermost open span
        self._next_id = 0
        self._undo: list[tuple] = []

    def set_stage(self, name: str) -> None:
        self.stage = name

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, key: str, span: bool, hook=None):
        stack, rec = self.stack, self.agg[key]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                sid, parent = tracer._next_id, tracer.current
                tracer._next_id += 1
                tracer.current = sid
            frame = [0.0, 0.0]
            stack.append(frame)
            error = None
            frame[0] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error, result = exc, None
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                rec[0] += 1
                rec[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span:
                    tracer.current = parent
                    tracer.spans.append(
                        (sid, parent, key, tracer.stage, start, end, duration - frame[1])
                    )
                if hook is not None:
                    hook(tracer, args, result, error)
            return result

        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _swap_defaults(self, fn, old, new) -> None:
        if fn.__defaults__ and any(d is old for d in fn.__defaults__):
            self._undo.append((fn, "__defaults__", fn.__defaults__))
            fn.__defaults__ = tuple(new if d is old else d for d in fn.__defaults__)
        if fn.__kwdefaults__ and any(d is old for d in fn.__kwdefaults__.values()):
            self._undo.append((fn, "__kwdefaults__", dict(fn.__kwdefaults__)))
            fn.__kwdefaults__ = {k: new if d is old else d for k, d in fn.__kwdefaults__.items()}

    def install(self) -> None:
        modules = [noisycfmm] + [importlib.import_module(f"noisycfmm.{m}") for m in MODULES]
        functions = [
            v for m in modules for v in vars(m).values() if isinstance(v, types.FunctionType)
        ]
        for module, name, span in FUNCTIONS:
            key = f"{module}.{name}"
            original = getattr(sys.modules[f"noisycfmm.{module}"], name)
            wrapper = self._wrap(original, key, span, HOOKS.get(key))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapper)
            for fn in functions:
                self._swap_defaults(fn, original, wrapper)
        for name in CURVE_METHODS:
            self._set(noisycfmm.TradingCurve, name,
                      self._wrap(getattr(noisycfmm.TradingCurve, name), f"curve.{name}", False))
        self._set(noisycfmm.NoiseDistribution, "sample",
                  self._wrap(noisycfmm.NoiseDistribution.sample, "privacy.sample", False,
                             HOOKS["privacy.sample"]))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstage\tstart\tend\tself_s\n")
            for s in self.spans:
                out.write("\t".join(map(str, s)) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        agg = self.agg

        def calls(*keys: str) -> int:
            return sum(agg[k][0] for k in keys)

        def self_s(*keys: str) -> float:
            return sum(agg[k][1] for k in keys)

        curve_keys = [f"curve.{m}" for m in CURVE_METHODS]
        strategy_keys = [f"strategies.{s}" for s in STRATEGIES]
        names = {s[0]: s for s in self.spans}

        def in_replica(span) -> bool:
            """Is the span inside a strategy call other than the truthful benchmark?"""
            parent = span[1]
            while parent >= 0:
                up = names[parent]
                if up[2] in strategy_keys:
                    return up[2] != "strategies.truthful_strategy"
                parent = up[1]
            return False

        replicas = [s for s in self.spans
                    if s[2] in strategy_keys and s[2] != "strategies.truthful_strategy"]
        replica_trades = sum(1 for s in self.spans
                             if s[2] == "market.execute_trade" and in_replica(s))
        trades = calls("market.execute_trade")
        quotes = calls("fee.noise_fee")
        notes = collections.defaultdict(int)
        for stage, what, value in self.notes:
            notes[what] += value
            notes[f"{stage}:{what}"] += value
        lp = [s for s in self.spans if s[2] == "harness.optimize_noise_lp" and s[3] == "lp_large"]
        lp_ids = {s[0] for s in lp}
        linprog = sum(s[5] - s[4] for s in self.spans
                      if s[2] == "harness.linprog" and s[1] in lp_ids)
        return {
            "curve.calls": calls(*curve_keys),
            "curve.contains.calls": calls("curve.contains"),
            "curve.reversal_gain.calls": calls("curve.reversal_gain"),
            "curve.self_s": self_s(*curve_keys),
            "curve.calls_per_trade": calls(*curve_keys) / trades if trades else 0.0,
            "privacy.binary_mechanism.calls": calls("privacy.binary_mechanism"),
            "privacy.binary_mechanism.self_s": self_s("privacy.binary_mechanism"),
            "privacy.sample.draws": notes["draws"],
            "privacy.verify_pldp.calls": calls("privacy.verify_pldp"),
            "privacy.verify_pldp.self_s": self_s("privacy.verify_pldp"),
            "fee.noise_fee.calls": quotes,
            "fee.noise_fee.self_s": self_s("fee.noise_fee"),
            "fee.atoms_per_quote": notes["atoms"] / quotes if quotes else 0.0,
            "market.execute_trade.calls": trades,
            "market.execute_trade.self_s": self_s("market.execute_trade"),
            "market.support_check.calls": calls("market.support_check"),
            "market.rejected": notes["rejected"],
            "strategies.replicas": len(replicas),
            "strategies.self_s": self_s(*strategy_keys),
            "strategies.trades_per_replica": replica_trades / len(replicas) if replicas else 0.0,
            "harness.replica_rng.calls": calls("harness.replica_rng"),
            "harness.replica_rng.self_s": self_s("harness.replica_rng"),
            "harness.estimate_excess_profit.self_s": self_s("harness.estimate_excess_profit"),
            "harness.lp.vars": notes["lp_large:lp_vars"],
            "harness.lp.ineq_rows": notes["lp_large:lp_ineq_rows"],
            "harness.lp.assembly_s": sum(s[5] - s[4] for s in lp) - linprog,
            "harness.linprog.s": linprog,
            "harness.linprog.nit": notes["lp_large:nit"],
            "harness.witness.candidates": notes["candidates"],
            "harness.witness.confirm_replicas": sum(
                1 for s in replicas if s[3].startswith("witness")),
            "cli.main.calls": calls("cli.main"),
            "cli.self_s": self_s("cli.main"),
        }


def _note(tracer: Tracer, what: str, value: float) -> None:
    tracer.notes.append((tracer.stage, what, value))


def _atoms(tracer, args, result, error):
    _note(tracer, "atoms", len(args[3].atoms))


def _draws(tracer, args, result, error):
    if len(args[0].atoms) > 1:  # single-atom noise draws no random number
        _note(tracer, "draws", 1)


def _rejected(tracer, args, result, error):
    if isinstance(error, HiddenAccountError):
        _note(tracer, "rejected", 1)


def _lp_size(tracer, args, result, error):
    problem = args[0]
    m, n = len(problem.input_grid), len(problem.output_grid)
    _note(tracer, "lp_vars", m * n)
    _note(tracer, "lp_ineq_rows", m * (m - 1) * n)


def _nit(tracer, args, result, error):
    if result is not None:
        _note(tracer, "nit", result.nit)


def _candidates(tracer, args, result, error):
    if result is not None:
        _note(tracer, "candidates", len(result.candidates))


HOOKS = {
    "fee.noise_fee": _atoms,
    "privacy.sample": _draws,
    "market.execute_trade": _rejected,
    "harness.optimize_noise_lp": _lp_size,
    "harness.linprog": _nit,
    "harness.reproduce_deviation_theorem": _candidates,
}
