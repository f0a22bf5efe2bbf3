"""Command line front end: strict JSON configs, deterministic outputs.

Exit codes: 0 success, 1 a configured expectation was falsified by the run,
2 usage or config error. Randomized commands refuse to run without an
explicit seed; nothing ever falls back to wall-clock seeding. JSON output is
canonical (sorted keys, two-space indent) so identical config and seed give
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
from typing import Callable

from .curve import TradingCurve
from .errors import ConfigError, NoisyCfmmError
from .fee import noise_fee, noise_fee_closed_form
from .harness import (
    ExperimentConfig,
    LPNoiseProblem,
    check_expectation,
    curve_to_json_obj,
    estimate_excess_profit,
    liquidity_scaling_study,
    optimize_noise_lp,
    parse_curve,
    parse_integer,
    parse_number,
    parse_privacy,
    replica_rng,
    reproduce_deviation_theorem,
    strict_keys,
    validate_lp_solution,
)
from .market import MarketState, eavesdrop_infer, execute_trade, write_csv
from .privacy import PrivacySpec, binary_mechanism, verify_pldp

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2

SCAN_EXPECTATIONS = ("witness_found", "no_witness")


def _spell_infinities(value):
    """The value with every infinite float spelled "inf" or "-inf", as configs spell them."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0.0 else "-inf"
    if isinstance(value, dict):
        return {k: _spell_infinities(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_infinities(v) for v in value]
    return value


def _canonical_json(payload: dict) -> str:
    """Standard JSON: infinities spelled out, and a NaN raises instead of printing."""
    return json.dumps(_spell_infinities(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _sig3(x: float) -> str:
    """Three-significant-figure scientific display."""
    return f"{x:.2e}"


def _parse_tau(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--tau expects 'lower,upper', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"--tau bounds must be numbers, got {text!r}") from None


def _curve_from_args(args: argparse.Namespace) -> TradingCurve:
    obj: dict = {"family": args.curve, "level": args.level}
    if args.slope is not None:
        obj["slope"] = args.slope
    return parse_curve(obj)


def _spec_from_args(args: argparse.Namespace) -> PrivacySpec:
    lo, hi = _parse_tau(args.tau)
    return PrivacySpec(lo, hi, args.epsilon)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


def _emit(
    args: argparse.Namespace,
    payload: dict,
    summary: str,
    csv_text: str | None = None,
) -> None:
    """Render to stdout and optionally to --out.

    json: canonical payload (summary included as a field). csv: bulk rows
    when the command has them. table: human key-value lines plus summary.
    """
    payload = dict(payload)
    payload["summary"] = summary
    if args.output == "json":
        rendered = _canonical_json(payload)
    elif args.output == "csv":
        if csv_text is None:
            raise ConfigError("csv output is not available for this command")
        rendered = csv_text
    else:
        rendered = _render_table(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(rendered)
        print(summary)
    else:
        sys.stdout.write(rendered)
        if args.output != "table":
            print(summary)


def _render_table(payload: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_table(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}: [{len(value)} rows]")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if not indent else "")


def _csv_from_rows(header: tuple[str, ...], rows: list[tuple]) -> str:
    buf = io.StringIO()
    write_csv(buf, header, rows)
    return buf.getvalue()


# -- quote-fee -----------------------------------------------------------------


def quote_fee_cmd(args: argparse.Namespace) -> int:
    curve = _curve_from_args(args)
    spec = _spec_from_args(args)
    dist = binary_mechanism(args.delta, spec)
    quote = noise_fee(curve, args.x, args.delta, dist)
    payload: dict = {
        "gamma": quote.gamma,
        "gamma_3sf": _sig3(quote.gamma),
        "curve": curve_to_json_obj(curve),
        "x": args.x,
        "delta": args.delta,
        "privacy": spec.to_json_obj(),
        "distribution": dist.to_json_obj(),
        "method": quote.method.value,
    }
    if curve.family.value == "constant_product" and len(dist.atoms) == 2:
        payload["gamma_closed_form"] = noise_fee_closed_form(
            curve.level, args.x, args.delta, dist
        ).gamma
    summary = f"noise fee {quote.gamma!r} ({_sig3(quote.gamma)})"
    _emit(args, payload, summary)
    return EXIT_OK


# -- attack-demo ---------------------------------------------------------------


def attack_demo_cmd(args: argparse.Namespace) -> int:
    curve = _curve_from_args(args)
    spec = _spec_from_args(args)
    if args.seed is None:
        raise ConfigError("attack-demo samples noise and requires an explicit --seed")
    state = MarketState(curve, args.x, 1e9, 1e9)
    pre_price = state.spot

    # what an eavesdropper recovers when the trade is published bare
    bare_state, _ = execute_trade(
        state, args.delta, PrivacySpec(args.delta, args.delta, math.inf)
    )
    noiseless_inferred = eavesdrop_infer(pre_price, bare_state.spot, curve)

    # and when the pool adds masking noise
    rng = replica_rng(args.seed, 0)
    noisy_state, record = execute_trade(state, args.delta, spec, rng)
    noisy_inferred = eavesdrop_infer(pre_price, noisy_state.spot, curve)

    report = verify_pldp(lambda v: binary_mechanism(v, spec), spec, grid_size=101)
    note = "no privacy requested" if spec.degenerate else ""
    payload = {
        "delta": args.delta,
        "noiseless_inferred": noiseless_inferred,
        "noisy_inferred": noisy_inferred,
        "eta": record.eta,
        "fee_paid": record.gamma,
        "privacy": spec.to_json_obj(),
        "pldp": {
            "max_ratio": report.max_ratio,
            "bound": report.bound,
            "satisfied": report.satisfied,
        },
        "note": note,
        "seed": args.seed,
    }
    ratio_word = "PASS" if report.satisfied else "FAIL"
    summary = (
        f"eavesdropper sees {noiseless_inferred:.5f} bare vs {noisy_inferred:.5f} masked "
        f"(eta {record.eta:+.5f}); max ratio {report.max_ratio:.5f} <= e^eps: {ratio_word}"
    )
    if note:
        summary += f" ({note})"
    _emit(args, payload, summary)
    return EXIT_OK if report.satisfied else EXIT_FALSIFIED


# -- simulate ------------------------------------------------------------------


def _parse_experiment_block(obj: dict) -> tuple[str, str | None, float]:
    strict_keys(obj, ("kind", "case", "mu"), "experiment")
    kind = obj.get("kind", "excess_profit")
    if kind == "excess_profit":
        strict_keys(obj, ("kind",), "experiment")
        return kind, None, 0.0
    if kind == "witness_scan":
        case = obj.get("case")
        if case not in ("positive_mean", "negative_mean"):
            raise ConfigError(
                f"experiment.case must be 'positive_mean' or 'negative_mean', got {case!r}"
            )
        return kind, case, parse_number(obj, "mu", "experiment")
    raise ConfigError(
        f"experiment.kind must be 'excess_profit' or 'witness_scan', got {kind!r}"
    )


def simulate_cmd(args: argparse.Namespace) -> int:
    raw = _load_config_file(args.config)
    experiment_obj = raw.pop("experiment", {"kind": "excess_profit"})
    kind, case, mu = _parse_experiment_block(experiment_obj)
    expect = raw.get("expect")
    if kind == "witness_scan":
        if expect is not None and expect not in SCAN_EXPECTATIONS:
            raise ConfigError(
                f"witness_scan expects one of {list(SCAN_EXPECTATIONS)}, got {expect!r}"
            )
        raw = dict(raw)
        raw.pop("expect", None)
    config = ExperimentConfig.from_json_obj(raw)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    if kind == "witness_scan":
        scan = reproduce_deviation_theorem(case, mu, config)
        payload = {"config": config.to_json_obj(), "experiment": experiment_obj,
                   "result": scan.to_json_obj(), "expect": expect}
        if scan.found:
            detour = "" if scan.detour_price is None else f" via detour {scan.detour_price!r}"
            summary = (
                f"witness found at true price {scan.true_price!r}{detour}: "
                f"mean excess {scan.mean_excess:.4g}, CI99 above 0"
            )
        else:
            summary = "no witness found on the scan grid"
        if expect == "witness_found":
            ok = scan.found
        elif expect == "no_witness":
            ok = not scan.found
        else:
            ok = True
        summary += "" if expect is None else (": PASS" if ok else ": FAIL")
        csv_text = _csv_from_rows(
            ("true_price", "detour_price", "expected_excess", "supported", "note"),
            [
                (c.true_price, c.detour_price, c.expected_excess, c.supported, c.note)
                for c in scan.candidates
            ],
        )
        payload["passed"] = ok
        _emit(args, payload, summary, csv_text)
        return EXIT_OK if ok else EXIT_FALSIFIED

    keep = args.output == "csv"
    result = estimate_excess_profit(config, keep_samples=keep)
    ok = check_expectation(result, config.expect)
    lo, hi = result.ci99
    if config.expect is None:
        summary = f"excess CI [{lo:+.4g},{hi:+.4g}], mean {result.mean:+.4g}"
        code = EXIT_OK
    elif config.expect == "ci_contains_zero":
        summary = f"excess CI [{lo:+.4g},{hi:+.4g}] contains 0: {'PASS' if ok else 'FAIL'}"
        code = EXIT_OK if ok else EXIT_FALSIFIED
    elif config.expect == "ci_above_zero":
        if ok:
            summary = f"excess CI [{lo:+.4g},{hi:+.4g}] above 0: additional arbitrage confirmed"
        else:
            summary = f"excess CI [{lo:+.4g},{hi:+.4g}] not above 0: FAIL"
        code = EXIT_OK if ok else EXIT_FALSIFIED
    elif config.expect == "ci_below_zero":
        summary = f"excess CI [{lo:+.4g},{hi:+.4g}] below 0: {'PASS' if ok else 'FAIL'}"
        code = EXIT_OK if ok else EXIT_FALSIFIED
    else:
        summary = (
            f"excess CI [{lo:+.4g},{hi:+.4g}] contains or lies below 0: "
            f"{'PASS' if ok else 'FAIL'}"
        )
        code = EXIT_OK if ok else EXIT_FALSIFIED
    result_obj = result.to_json_obj()
    payload = {"config": config.to_json_obj(), "result": result_obj, "passed": ok}
    csv_text = None
    if keep and result.samples is not None:
        csv_text = _csv_from_rows(
            ("replica", "excess"), [(i, v) for i, v in enumerate(result.samples)]
        )
    _emit(args, payload, summary, csv_text)
    return code


# -- optimize-noise ------------------------------------------------------------


def optimize_cmd(args: argparse.Namespace) -> int:
    raw = _load_config_file(args.config)
    strict_keys(
        raw,
        ("curve", "reference_x", "privacy", "n_inputs", "n_outputs", "method", "expect"),
        "config",
    )
    for req in ("curve", "reference_x", "privacy"):
        if req not in raw:
            raise ConfigError(f"missing required field '{req}' in config")
    curve = parse_curve(raw["curve"])
    spec = parse_privacy(raw["privacy"])
    problem = LPNoiseProblem.build(
        curve,
        parse_number(raw, "reference_x", "config"),
        spec,
        n_inputs=parse_integer(raw, "n_inputs", "config", 21),
        n_outputs=parse_integer(raw, "n_outputs", "config", 41),
    )
    method = raw.get("method", "highs")
    if not isinstance(method, str):
        raise ConfigError(f"field 'method' must be a string, got {method!r}")
    expect_obj = raw.get("expect")
    max_avg = None
    fee_at: tuple[float, float] | None = None
    if expect_obj is not None:
        strict_keys(expect_obj, ("max_average_fee", "max_fee_at"), "expect")
        if "max_average_fee" in expect_obj:
            max_avg = parse_number(expect_obj, "max_average_fee", "expect")
        if "max_fee_at" in expect_obj:
            pair = expect_obj["max_fee_at"]
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ConfigError("expect.max_fee_at must be [delta, bound]")
            fee_at = (float(pair[0]), float(pair[1]))

    solution = optimize_noise_lp(problem, method=method)
    checkup = validate_lp_solution(solution)
    ok = checkup.ok
    parts = [f"avg fee {solution.average_fee!r}"]
    parts.append(
        f"max ratio {checkup.pldp.max_ratio:.5f} <= e^eps: "
        f"{'PASS' if checkup.pldp.satisfied else 'FAIL'}"
    )
    if max_avg is not None:
        good = solution.average_fee <= max_avg
        ok = ok and good
        parts.append(f"avg <= {max_avg!r}: {'PASS' if good else 'FAIL'}")
    if fee_at is not None:
        value = solution.fee_at(fee_at[0])
        good = value <= fee_at[1]
        ok = ok and good
        parts.append(f"fee at {fee_at[0]!r} <= {fee_at[1]!r}: {'PASS' if good else 'FAIL'}")
    payload = {
        "solution": solution.to_json_obj(),
        "validation": checkup.to_json_obj(),
        "passed": ok,
    }
    csv_text = _csv_from_rows(
        ("input", "fee"),
        list(zip(solution.problem.input_grid, solution.per_input_fees)),
    )
    _emit(args, payload, "; ".join(parts), csv_text)
    return EXIT_OK if ok else EXIT_FALSIFIED


# -- verify-pldp ---------------------------------------------------------------


def verify_cmd(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    report = verify_pldp(lambda v: binary_mechanism(v, spec), spec, grid_size=args.grid)
    payload = {
        "privacy": spec.to_json_obj(),
        "grid_size": args.grid,
        "max_ratio": report.max_ratio,
        "bound": report.bound,
        "satisfied": report.satisfied,
    }
    summary = (
        f"max ratio {report.max_ratio:.5f} <= e^eps: "
        f"{'PASS' if report.satisfied else 'FAIL'}"
    )
    _emit(args, payload, summary)
    return EXIT_OK if report.satisfied else EXIT_FALSIFIED


# -- scaling-study -------------------------------------------------------------


def scaling_cmd(args: argparse.Namespace) -> int:
    raw = _load_config_file(args.config)
    strict_keys(
        raw,
        ("base_level", "multipliers", "price", "trade_size", "privacy", "expect_max_spread"),
        "config",
    )
    for req in ("base_level", "multipliers", "privacy"):
        if req not in raw:
            raise ConfigError(f"missing required field '{req}' in config")
    multipliers = raw["multipliers"]
    if not (
        isinstance(multipliers, list)
        and multipliers
        and all(isinstance(m, (int, float)) and not isinstance(m, bool) for m in multipliers)
    ):
        raise ConfigError(f"field 'multipliers' must be a non-empty number list")
    study = liquidity_scaling_study(
        parse_number(raw, "base_level", "config"),
        [float(m) for m in multipliers],
        parse_number(raw, "price", "config", 1.0),
        parse_number(raw, "trade_size", "config", 1.0),
        parse_privacy(raw["privacy"]),
    )
    tol = raw.get("expect_max_spread")
    if tol is not None:
        tol = parse_number(raw, "expect_max_spread", "config")
    ok = True if tol is None else study.max_relative_spread <= tol
    summary = f"fee*|L| relative spread {study.max_relative_spread:.3e}"
    if tol is not None:
        summary += f" <= {tol!r}: {'PASS' if ok else 'FAIL'}"
    payload = {"study": study.to_json_obj(), "passed": ok}
    csv_text = _csv_from_rows(
        ("multiplier", "level", "gamma", "liquidity", "fee_liquidity_product"),
        [
            (r.multiplier, r.level, r.gamma, r.liquidity, r.fee_liquidity_product)
            for r in study.rows
        ],
    )
    _emit(args, payload, summary, csv_text)
    return EXIT_OK if ok else EXIT_FALSIFIED


# -- parser --------------------------------------------------------------------


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", choices=("json", "csv", "table"), default="table")
    sub.add_argument("--out", metavar="PATH", default=None, help="write rendered output here")


def _add_curve_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--curve", required=True, metavar="FAMILY",
                     help="cp|constant_product|lmsr|csum|constant_sum")
    sub.add_argument("--level", required=True, type=float, help="curve level (e.g. K)")
    sub.add_argument("--slope", type=float, default=None, help="constant-sum slope")


def _add_privacy_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tau", required=True, metavar="L,U", help="masking interval bounds")
    sub.add_argument("--epsilon", required=True, type=float, help="privacy budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisycfmm",
        description="noisy constant function market maker laboratory",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    q = sub.add_parser("quote-fee", help="price the masking noise for one trade")
    _add_curve_flags(q)
    q.add_argument("--x", required=True, type=float, help="visible X reserve")
    q.add_argument("--delta", required=True, type=float, help="trade size in X")
    _add_privacy_flags(q)
    _add_output_flags(q)
    q.set_defaults(func=quote_fee_cmd)

    a = sub.add_parser("attack-demo", help="eavesdropper inference with and without masking")
    _add_curve_flags(a)
    a.add_argument("--x", required=True, type=float)
    a.add_argument("--delta", required=True, type=float)
    _add_privacy_flags(a)
    a.add_argument("--seed", type=int, default=None)
    _add_output_flags(a)
    a.set_defaults(func=attack_demo_cmd)

    s = sub.add_parser("simulate", help="Monte Carlo excess-profit experiment from a config")
    s.add_argument("--config", required=True, metavar="PATH")
    s.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    _add_output_flags(s)
    s.set_defaults(func=simulate_cmd)

    o = sub.add_parser("optimize-noise", help="solve the cheapest-noise linear program")
    o.add_argument("--config", required=True, metavar="PATH")
    _add_output_flags(o)
    o.set_defaults(func=optimize_cmd)

    v = sub.add_parser("verify-pldp", help="check the masking mechanism's privacy ratio")
    _add_privacy_flags(v)
    v.add_argument("--grid", type=int, default=101, help="input grid size")
    _add_output_flags(v)
    v.set_defaults(func=verify_cmd)

    c = sub.add_parser("scaling-study", help="fee versus pool depth study")
    c.add_argument("--config", required=True, metavar="PATH")
    _add_output_flags(c)
    c.set_defaults(func=scaling_cmd)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    func: Callable[[argparse.Namespace], int] = args.func
    try:
        return func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NoisyCfmmError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
