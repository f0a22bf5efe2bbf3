"""Command line front end: strict JSON configs, deterministic outputs.

Exit codes: 0 success, 1 a configured expectation was falsified by the run,
2 usage or config error (any NoisyCfmmError; other exceptions are faults
and propagate). Randomized commands refuse to run without an explicit seed;
nothing ever falls back to wall-clock seeding. JSON output is canonical
(sorted keys, two-space indent) so identical config and seed give
byte-identical bytes. simulate and optimize-noise import harness, and with
it numpy, market and strategies, when they run. attack-demo imports market
and draws its noise from streams, replica_rng's Philox stream in plain ints,
so it loads no numpy; quote-fee, verify-pldp and scaling-study load none of
these.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from typing import Callable, Iterable, Sequence

from .codec import (
    choice, fields_of, integer, number, number_list, optional, pair, parse_fields, parse_kind,
    to_json,
)
from .curve import TradingCurve, parse_curve
from .errors import ConfigError, NoisyCfmmError
from .fee import ScalingRow, liquidity_scaling_study, noise_fee, noise_fee_closed_form
from .privacy import PrivacySpec, binary_mechanism, parse_privacy, verify_pldp

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2

SCAN_EXPECTATIONS = ("witness_found", "no_witness")
# What the simulate summary says of the CI under each expectation: (met, not met)
_VERDICTS = {
    "ci_contains_zero": ("contains 0: PASS", "contains 0: FAIL"),
    "ci_above_zero": ("above 0: additional arbitrage confirmed", "not above 0: FAIL"),
    "ci_below_zero": ("below 0: PASS", "below 0: FAIL"),
    "ci_contains_or_below_zero": (
        "contains or lies below 0: PASS", "contains or lies below 0: FAIL",
    ),
}

_EXPERIMENTS = {
    "excess_profit": {},
    "witness_scan": {"case": choice("positive_mean", "negative_mean"), "mu": number},
}
_LP_FIELDS = {
    "curve": parse_curve,
    "reference_x": number,
    "privacy": parse_privacy,
    "n_inputs": integer,
    "n_outputs": integer,
    "expect": optional(lambda obj, path: parse_fields(
        obj, {"max_average_fee": number, "max_fee_at": pair}, (), path
    )),
}
_SCALING_FIELDS = {
    "base_level": number,
    "multipliers": number_list,
    "price": number,
    "trade_size": number,
    "privacy": parse_privacy,
    "expect_max_spread": optional(number),
}


def _sig3(x: float) -> str:
    """Three-significant-figure scientific display."""
    return f"{x:.2e}"


def _ratio(x: float) -> str:
    """A privacy ratio for a summary line: five decimals, in scientific form from
    1e6 on, where e^eps would print hundreds of digits (e^709 has 308)."""
    return f"{x:.5f}" if x < 1e6 else f"{x:.5e}"


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
    except ValueError as e:  # malformed JSON, bad UTF-8, an over-long integer
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


def _emit(
    args: argparse.Namespace, payload: dict, summary: str, csv_text: str | None = None
) -> None:
    """Render to stdout and optionally to --out.

    json: the canonical payload (summary included as a field), standard JSON
    in which a NaN raises instead of printing. csv: bulk rows when the command
    has them. table: human key-value lines plus summary.
    """
    payload = to_json({**payload, "summary": summary})
    if args.output == "json":
        rendered = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
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


def _csv_from_rows(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Header plus rows; floats are written as repr so they read back bit-exact."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _csv_from_records(cls: type, records: Sequence) -> str:
    """One column per field of dataclass ``cls``, one row per record."""
    names = [f.name for f in dataclasses.fields(cls)]
    return _csv_from_rows(names, ([getattr(r, name) for name in names] for r in records))


# -- quote-fee -----------------------------------------------------------------


def quote_fee_cmd(args: argparse.Namespace) -> int:
    curve = _curve_from_args(args)
    spec = _spec_from_args(args)
    dist = binary_mechanism(args.delta, spec)
    quote = noise_fee(curve, args.x, args.delta, dist)
    payload: dict = {
        "gamma": quote.gamma,
        "gamma_3sf": _sig3(quote.gamma),
        "curve": curve,
        "x": args.x,
        "delta": args.delta,
        "privacy": spec,
        "distribution": dist,
        "method": quote.method,
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
    from .market import MarketState, eavesdrop_infer, execute_trade
    from .streams import ReplicaStream  # replica 0's stream, without numpy

    curve = _curve_from_args(args)
    spec = _spec_from_args(args)
    if args.seed is None:
        raise ConfigError("attack-demo samples noise and requires an explicit --seed")
    if args.seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {args.seed}")
    state = MarketState(curve, args.x, 1e9, 1e9)
    pre_price = state.spot

    # what an eavesdropper recovers when the trade is published bare
    bare_state, _ = execute_trade(
        state, args.delta, PrivacySpec(args.delta, args.delta, math.inf)
    )
    noiseless_inferred = eavesdrop_infer(pre_price, bare_state.spot, curve)

    # and when the pool adds masking noise
    rng = ReplicaStream(args.seed, 0)
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
        "privacy": spec,
        "pldp": fields_of(report, "grid_size", "n_outputs"),
        "note": note,
        "seed": args.seed,
    }
    ratio_word = "PASS" if report.satisfied else "FAIL"
    summary = (
        f"eavesdropper sees {noiseless_inferred:.5f} bare vs {noisy_inferred:.5f} masked "
        f"(eta {record.eta:+.5f}); max ratio {_ratio(report.max_ratio)} <= e^eps: {ratio_word}"
    )
    if note:
        summary += f" ({note})"
    _emit(args, payload, summary)
    return EXIT_OK if report.satisfied else EXIT_FALSIFIED


# -- simulate ------------------------------------------------------------------


def simulate_cmd(args: argparse.Namespace) -> int:
    from .harness import (
        ExperimentConfig, WitnessCandidate, check_expectation, estimate_excess_profit,
        reproduce_deviation_theorem,
    )

    raw = _load_config_file(args.config)
    experiment_obj = raw.pop("experiment", {})
    experiment = parse_kind(
        experiment_obj, "kind", _EXPERIMENTS, ("case", "mu"), "config.experiment",
        default="excess_profit",
    )
    if experiment["kind"] == "witness_scan":  # the scan's expectations replace the config's
        expect = optional(choice(*SCAN_EXPECTATIONS))(raw.pop("expect", None), "config.expect")
    config = ExperimentConfig.from_json_obj(raw)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    if experiment["kind"] == "witness_scan":
        scan = reproduce_deviation_theorem(experiment["case"], experiment["mu"], config)
        payload = {"config": config, "experiment": experiment_obj, "result": scan, "expect": expect}
        if scan.found:
            detour = "" if scan.detour_price is None else f" via detour {scan.detour_price!r}"
            summary = (
                f"witness found at true price {scan.true_price!r}{detour}: "
                f"mean excess {scan.mean_excess:.4g}, CI99 above 0"
            )
        else:
            summary = "no witness found on the scan grid"
        ok = expect is None or scan.found == (expect == "witness_found")
        summary += "" if expect is None else (": PASS" if ok else ": FAIL")
        payload["passed"] = ok
        _emit(args, payload, summary, _csv_from_records(WitnessCandidate, scan.candidates))
        return EXIT_OK if ok else EXIT_FALSIFIED

    keep = args.output == "csv"
    result = estimate_excess_profit(config, keep_samples=keep)
    ok = check_expectation(result, config.expect)
    lo, hi = result.ci99
    summary = f"excess CI [{lo:+.4g},{hi:+.4g}]"
    if config.expect is None:
        summary += f", mean {result.mean:+.4g}"
    else:
        summary += " " + _VERDICTS[config.expect][0 if ok else 1]
    code = EXIT_FALSIFIED if ok is False else EXIT_OK
    payload = {"config": config, "result": result, "passed": ok}
    csv_text = None
    if keep and result.samples is not None:
        csv_text = _csv_from_rows(
            ("replica", "excess"), [(i, v) for i, v in enumerate(result.samples)]
        )
    _emit(args, payload, summary, csv_text)
    return code


# -- optimize-noise ------------------------------------------------------------


def optimize_cmd(args: argparse.Namespace) -> int:
    from .harness import LPNoiseProblem, optimize_noise_lp, validate_lp_solution

    fields = parse_fields(
        _load_config_file(args.config), _LP_FIELDS, ("curve", "reference_x", "privacy"), "config"
    )
    expect = fields.pop("expect", None) or {}
    max_avg, fee_at = expect.get("max_average_fee"), expect.get("max_fee_at")
    spec = fields["privacy"]
    if fee_at is not None and not spec.contains(fee_at[0]):
        raise ConfigError(
            f"config.expect.max_fee_at[0] must lie in the masking interval "
            f"[{spec.lower}, {spec.upper}], got {fee_at[0]!r}"
        )
    problem = LPNoiseProblem.build(
        fields.pop("curve"), fields.pop("reference_x"), fields.pop("privacy"), **fields
    )

    solution = optimize_noise_lp(problem)
    checkup = validate_lp_solution(solution)
    ok = checkup.ok
    parts = [f"avg fee {solution.average_fee!r}"]
    parts.append(
        f"max ratio {_ratio(checkup.pldp.max_ratio)} <= e^eps: "
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
    payload = {"solution": solution, "validation": checkup, "passed": ok}
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
    payload = {**fields_of(report, "n_outputs"), "privacy": spec, "grid_size": args.grid}
    summary = (
        f"max ratio {_ratio(report.max_ratio)} <= e^eps: "
        f"{'PASS' if report.satisfied else 'FAIL'}"
    )
    _emit(args, payload, summary)
    return EXIT_OK if report.satisfied else EXIT_FALSIFIED


# -- scaling-study -------------------------------------------------------------


def scaling_cmd(args: argparse.Namespace) -> int:
    fields = parse_fields(
        _load_config_file(args.config), _SCALING_FIELDS, ("base_level", "multipliers", "privacy"),
        "config",
    )
    study = liquidity_scaling_study(
        fields["base_level"], fields["multipliers"], fields.get("price", 1.0),
        fields.get("trade_size", 1.0), fields["privacy"],
    )
    tol = fields.get("expect_max_spread")
    ok = True if tol is None else study.max_relative_spread <= tol
    summary = f"fee*|L| relative spread {study.max_relative_spread:.3e}"
    if tol is not None:
        summary += f" <= {tol!r}: {'PASS' if ok else 'FAIL'}"
    payload = {"study": study, "passed": ok}
    _emit(args, payload, summary, _csv_from_records(ScalingRow, study.rows))
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


if __name__ == "__main__":
    sys.exit(main())
