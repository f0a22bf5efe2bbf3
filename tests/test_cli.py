"""Command line interface: flags, exit codes, output formats, summaries."""

import contextlib
import copy
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisycfmm import ExperimentConfig, cli, estimate_excess_profit, harness

QUOTE_ARGS = [
    "quote-fee", "--curve", "cp", "--level", "10000", "--x", "100",
    "--delta", "1", "--tau", "0,2", "--epsilon", "2",
]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--output", "json"])
    # the JSON document ends at the closing brace; the summary line follows
    doc, _, trailer = out.rpartition("}\n")
    payload = json.loads(doc + "}\n") if doc else None
    return code, payload, trailer.strip(), err


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def reject_constant(name):
    """json.loads hook: Infinity, -Infinity and NaN are not standard JSON."""
    raise ValueError(f"non-standard JSON constant {name}")


def simulate_config(**overrides):
    obj = {
        "curve": {"family": "constant_product", "level": 1e4},
        "initial_x": 100.0,
        "true_price": 1.5,
        "privacy": {"tau": [0, 2], "epsilon": 2},
        "strategy": {"kind": "truthful"},
        "replicas": 50,
        "seed": 7,
        "expect": "ci_contains_zero",
    }
    obj.update(overrides)
    return obj


class TestQuoteFee:
    def test_reference_value(self, capsys):
        code, payload, summary, _ = run_json(capsys, QUOTE_ARGS)
        assert code == 0
        assert payload["gamma"] == pytest.approx(0.016736401229369886, rel=1e-12)
        assert payload["gamma_3sf"] == "1.67e-02"
        assert payload["gamma_closed_form"] == pytest.approx(payload["gamma"], rel=1e-9)
        assert "1.67e-02" in summary

    def test_degenerate_interval_is_free(self, capsys):
        argv = [a if a != "0,2" else "1,1" for a in QUOTE_ARGS]
        code, payload, _, _ = run_json(capsys, argv)
        assert code == 0
        assert payload["gamma"] == 0.0

    def test_json_runs_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, QUOTE_ARGS + ["--output", "json"])
        _, second, _ = run(capsys, QUOTE_ARGS + ["--output", "json"])
        assert first == second

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, QUOTE_ARGS)
        assert code == 0
        assert "gamma: 0.016736401229369886" in out

    def test_out_file_gets_document_stdout_gets_summary(self, capsys, tmp_path):
        target = tmp_path / "quote.json"
        code, out, _ = run(capsys, QUOTE_ARGS + ["--output", "json", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["delta"] == 1.0
        assert out.strip().startswith("noise fee ")
        assert "{" not in out

    def test_csv_unavailable_here(self, capsys):
        code, _, err = run(capsys, QUOTE_ARGS + ["--output", "csv"])
        assert code == 2
        assert "csv" in err

    def test_malformed_tau(self, capsys):
        argv = [a if a != "0,2" else "0;2" for a in QUOTE_ARGS]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "tau" in err

    def test_unknown_curve_family(self, capsys):
        argv = [a if a != "cp" else "parabola" for a in QUOTE_ARGS]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "parabola" in err

    def test_missing_flags_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["quote-fee", "--curve", "cp"])
        assert exc.value.code == 2

    def test_overflowing_fee_is_a_domain_error(self, capsys):
        # a deep pool near its lowest reserve prices the noise beyond float range
        code, out, err = run(capsys, [
            "quote-fee", "--curve", "cp", "--level", "1e308", "--x", "3",
            "--delta", "2", "--tau", "0,4", "--epsilon", "2", "--output", "json",
        ])
        assert code == 2
        assert out == ""
        assert "not finite" in err


class TestAttackDemo:
    BASE = [
        "attack-demo", "--curve", "cp", "--level", "10000", "--x", "100",
        "--delta", "1", "--tau", "0,2", "--epsilon", "2", "--seed", "3",
    ]

    def test_inference_identities(self, capsys):
        code, payload, summary, _ = run_json(capsys, self.BASE)
        assert code == 0
        assert payload["noiseless_inferred"] == pytest.approx(1.0, abs=1e-10)
        assert payload["noisy_inferred"] == pytest.approx(1.0 + payload["eta"], abs=1e-10)
        assert abs(payload["eta"]) > 0.1
        assert "masked" in summary
        assert "max ratio 7.38906 <= e^eps: PASS" in summary

    def test_requires_seed(self, capsys):
        code, _, err = run(capsys, self.BASE[:-2])
        assert code == 2
        assert "seed" in err

    def test_negative_seed_is_a_config_error(self, capsys):
        code, out, err = run(capsys, self.BASE[:-1] + ["-1"])
        assert (code, out) == (2, "")
        assert "--seed must be at least 0, got -1" in err

    def test_degenerate_notes_no_privacy(self, capsys):
        argv = [a if a != "0,2" else "1,1" for a in self.BASE]
        code, payload, summary, _ = run_json(capsys, argv)
        assert code == 0
        assert payload["eta"] == 0.0
        assert payload["noisy_inferred"] == pytest.approx(1.0, abs=1e-10)
        assert summary.endswith("(no privacy requested)")


class TestVerifyPldp:
    def test_tight_mechanism_passes(self, capsys):
        code, payload, summary, _ = run_json(
            capsys, ["verify-pldp", "--tau", "0,2", "--epsilon", "2"]
        )
        assert code == 0
        assert payload["max_ratio"] == pytest.approx(math.exp(2.0), rel=1e-9)
        assert summary == "max ratio 7.38906 <= e^eps: PASS"

    def test_grid_flag(self, capsys):
        code, payload, _, _ = run_json(
            capsys, ["verify-pldp", "--tau", "0,2", "--epsilon", "2", "--grid", "11"]
        )
        assert code == 0
        assert payload["grid_size"] == 11

    def test_infinite_epsilon_is_standard_json(self, capsys):
        code, out, _ = run(
            capsys, ["verify-pldp", "--tau", "0,2", "--epsilon", "inf", "--output", "json"]
        )
        assert code == 0
        doc, _, _ = out.rpartition("}\n")
        payload = json.loads(doc + "}\n", parse_constant=reject_constant)
        assert payload["bound"] == payload["max_ratio"] == "inf"
        assert payload["privacy"]["epsilon"] == "inf"

    @pytest.mark.parametrize("command", ["verify-pldp", "attack-demo"])
    def test_overflowing_epsilon_fails_in_standard_json(self, capsys, command):
        flags = {
            "verify-pldp": ["verify-pldp", "--tau", "0,2"],
            "attack-demo": [
                "attack-demo", "--curve", "cp", "--level", "1e4", "--x", "100", "--delta", "1",
                "--tau", "0,2", "--seed", "3",
            ],
        }[command]
        # e^709 and the endpoint ratio are finite; from about 709.78 on both overflow
        code, out, err = run(capsys, flags + ["--epsilon", "709", "--output", "json"])
        assert (code, err) == (0, "")
        doc, _, summary = out.rpartition("}\n")
        payload = json.loads(doc + "}\n", parse_constant=reject_constant)
        report = payload if command == "verify-pldp" else payload["pldp"]
        assert report["bound"] == math.exp(709.0)
        assert report["max_ratio"] == pytest.approx(math.exp(709.0), rel=1e-9)
        assert report["satisfied"] is True
        assert summary.strip().endswith("e^eps: PASS")
        assert len(summary.strip()) < 120  # e^709 in scientific form, not its 308 digits
        for epsilon in ("710", "1000"):
            code, out, err = run(capsys, flags + ["--epsilon", epsilon, "--output", "json"])
            assert (code, err) == (1, "")
            doc, _, summary = out.rpartition("}\n")
            payload = json.loads(doc + "}\n", parse_constant=reject_constant)
            report = payload if command == "verify-pldp" else payload["pldp"]
            assert report["max_ratio"] == "inf"
            assert report["satisfied"] is False
            assert report["bound"] == "inf"
            assert summary.strip().endswith("max ratio inf <= e^eps: FAIL")

    def test_overflowing_width_is_a_spec_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would raise here
            code, out, err = run(capsys, ["verify-pldp", "--tau=-1e308,1e308", "--epsilon", "2"])
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: masking interval width overflows, got [-1e+308, 1e+308]"]


class TestSimulate:
    def test_truthful_contains_zero(self, capsys, tmp_path):
        path = write_config(tmp_path, simulate_config())
        code, _, summary, _ = run_json(capsys, ["simulate", "--config", path])
        assert code == 0
        assert "contains 0: PASS" in summary

    def test_failed_expectation_exits_one(self, capsys, tmp_path):
        path = write_config(tmp_path, simulate_config(expect="ci_above_zero"))
        code, _, summary, _ = run_json(capsys, ["simulate", "--config", path])
        assert code == 1
        assert "not above 0: FAIL" in summary

    def test_unpriced_noise_is_an_arbitrage(self, capsys, tmp_path):
        config = simulate_config(
            strategy={"kind": "noise_chasing", "max_rounds": 4},
            fee_policy={"policy": "zero"},
            replicas=400,
            expect="ci_above_zero",
        )
        path = write_config(tmp_path, config)
        code, payload, summary, _ = run_json(capsys, ["simulate", "--config", path])
        assert code == 0
        assert "additional arbitrage confirmed" in summary
        assert payload["result"]["mean"] > 0

    def test_unknown_field_is_named(self, capsys, tmp_path):
        path = write_config(tmp_path, simulate_config(replcias=10))
        code, _, err = run(capsys, ["simulate", "--config", path])
        assert code == 2
        assert "replcias" in err

    def test_seed_required(self, capsys, tmp_path):
        config = simulate_config()
        del config["seed"]
        path = write_config(tmp_path, config)
        code, _, err = run(capsys, ["simulate", "--config", path])
        assert code == 2
        assert "seed" in err

    def test_seed_flag_overrides(self, capsys, tmp_path):
        config = simulate_config(
            strategy={"kind": "noise_chasing", "max_rounds": 2}, replicas=20
        )
        del config["seed"]
        path = write_config(tmp_path, config)
        code, payload, _, _ = run_json(capsys, ["simulate", "--config", path, "--seed", "5"])
        assert code == 0
        assert payload["config"]["seed"] == 5

    def test_csv_has_replica_detail(self, capsys, tmp_path):
        config = simulate_config(
            strategy={"kind": "noise_chasing", "max_rounds": 2}, replicas=25
        )
        path = write_config(tmp_path, config)
        code, out, _ = run(capsys, ["simulate", "--config", path, "--output", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "replica,excess"
        assert len(lines) == 1 + 25 + 1  # header, rows, summary line
        # floats are written as repr, so every excess reads back bit-exact
        samples = estimate_excess_profit(
            ExperimentConfig.from_json_obj(config), keep_samples=True
        ).samples
        rows = [line.split(",") for line in lines[1:-1]]
        assert [(int(i), float(v)) for i, v in rows] == list(enumerate(samples))

    def test_zero_replicas_is_a_config_error(self, capsys, tmp_path):
        path = write_config(tmp_path, simulate_config(replicas=0))
        code, out, err = run(capsys, ["simulate", "--config", path, "--output", "json"])
        assert (code, out) == (2, "")
        assert "'replicas' must be at least 1, got 0" in err

    def test_zero_policies_is_a_config_error(self, capsys, tmp_path):
        config = simulate_config(strategy={"kind": "adaptive_random", "policies": 0})
        path = write_config(tmp_path, config)
        code, out, err = run(capsys, ["simulate", "--config", path, "--output", "json"])
        assert (code, out) == (2, "")
        assert "'policies' must be at least 1, got 0" in err

    @pytest.mark.parametrize("field, overrides", [
        ("replicas", {"replicas": 10**20}),
        ("policies", {"strategy": {"kind": "adaptive_random", "policies": 10**20}}),
        ("bound", {"strategy": {"kind": "adaptive_random", "bound": 10**20}}),
        ("max_rounds", {"strategy": {"kind": "noise_chasing", "max_rounds": 10**20}}),
    ])
    def test_count_above_its_ceiling_is_a_config_error(self, capsys, tmp_path, field, overrides):
        path = write_config(tmp_path, simulate_config(**overrides))
        code, out, err = run(capsys, ["simulate", "--config", path, "--output", "json"])
        assert (code, out) == (2, "")
        assert f"'{field}' must be at most" in err

    @pytest.mark.parametrize("output", ["json", "table"])
    def test_overflowing_mean_is_a_domain_error(self, capsys, tmp_path, output):
        # every sample is a finite -8e306; their sum is not
        config = {
            **README_CONFIGS["simulate"], "replicas": 50,
            "fee_policy": {"policy": "fixed", "value": 1e306},
        }
        path = write_config(tmp_path, config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would raise here
            code, out, err = run(capsys, ["simulate", "--config", path, "--output", output])
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: excess-profit mean -inf is not finite"]

    def test_reserve_where_x_squared_underflows_is_a_domain_error(self, capsys, tmp_path):
        # x_min may sit as low as a config likes; the domain stops where x*x and
        # level/x^2 stay positive and finite
        config = simulate_config(
            curve={"family": "constant_product", "level": 1e4, "x_min": 1e-200},
            initial_x=1e-200, strategy={"kind": "case1", "trade_size": 1.0},
        )
        path = write_config(tmp_path, config)
        code, out, err = run(capsys, ["simulate", "--config", path, "--output", "json"])
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: x=1e-200 outside the represented domain "
            "[1.7031839360032603e-108, 1000000000000.0] of constant_product"
        ]

    def test_config_file_must_exist(self, capsys):
        code, _, err = run(capsys, ["simulate", "--config", "/nonexistent.json"])
        assert code == 2
        assert "cannot read" in err

    def test_internal_fault_is_not_a_usage_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(harness, "estimate_excess_profit", broken)
        path = write_config(tmp_path, simulate_config())
        with pytest.raises(ValueError, match="internal fault"):
            cli.main(["simulate", "--config", path])


class TestSimulateWitnessScan:
    def test_zero_mean_control(self, capsys, tmp_path):
        config = simulate_config(
            strategy={"kind": "case1", "trade_size": 1.0},
            replicas=2000,
            expect="no_witness",
        )
        config["experiment"] = {"kind": "witness_scan", "case": "positive_mean", "mu": 0.0}
        path = write_config(tmp_path, config)
        code, payload, summary, _ = run_json(capsys, ["simulate", "--config", path])
        assert code == 0
        assert summary == "no witness found on the scan grid: PASS"
        assert payload["result"]["found"] is False

    def test_biased_noise_yields_witness(self, capsys, tmp_path):
        config = simulate_config(
            strategy={"kind": "case1", "trade_size": 1.0},
            replicas=20000,
            expect="witness_found",
        )
        config["experiment"] = {"kind": "witness_scan", "case": "positive_mean", "mu": 0.13}
        path = write_config(tmp_path, config)
        code, _, summary, _ = run_json(capsys, ["simulate", "--config", path])
        assert code == 0
        assert summary.startswith("witness found at true price")
        assert summary.endswith("CI99 above 0: PASS")

    def test_wrong_expectation_fails(self, capsys, tmp_path):
        config = simulate_config(
            strategy={"kind": "case1", "trade_size": 1.0},
            replicas=2000,
            expect="witness_found",
        )
        config["experiment"] = {"kind": "witness_scan", "case": "positive_mean", "mu": 0.0}
        path = write_config(tmp_path, config)
        code, _, summary, _ = run_json(capsys, ["simulate", "--config", path])
        assert code == 1
        assert summary.endswith("FAIL")

    def test_bad_case_rejected(self, capsys, tmp_path):
        config = simulate_config()
        config["experiment"] = {"kind": "witness_scan", "case": "sideways", "mu": 0.0}
        path = write_config(tmp_path, config)
        code, _, err = run(capsys, ["simulate", "--config", path])
        assert code == 2
        assert "sideways" in err


class TestOptimizeNoise:
    def small_config(self, tmp_path, **overrides):
        obj = {
            "curve": {"family": "cp", "level": 1e4},
            "reference_x": 100.0,
            "privacy": {"tau": [0, 2], "epsilon": 2},
            "n_inputs": 5,
            "n_outputs": 9,
        }
        obj.update(overrides)
        return write_config(tmp_path, obj)

    def test_solves_and_validates(self, capsys, tmp_path):
        path = self.small_config(
            tmp_path, expect={"max_fee_at": [1.0, 0.017], "max_average_fee": 0.017}
        )
        code, payload, summary, _ = run_json(capsys, ["optimize-noise", "--config", path])
        assert code == 0
        assert payload["validation"]["ok"] is True
        assert "avg fee" in summary
        assert "PASS" in summary and "FAIL" not in summary

    def test_fee_bound_violation_exits_one(self, capsys, tmp_path):
        path = self.small_config(tmp_path, expect={"max_average_fee": 1e-9})
        code, _, summary, _ = run_json(capsys, ["optimize-noise", "--config", path])
        assert code == 1
        assert "FAIL" in summary

    def test_csv_lists_per_input_fees(self, capsys, tmp_path):
        path = self.small_config(tmp_path)
        code, out, _ = run(capsys, ["optimize-noise", "--config", path, "--output", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "input,fee"
        assert len(lines) == 1 + 5 + 1

    def test_unknown_field(self, capsys, tmp_path):
        path = self.small_config(tmp_path, reference_y=5.0)
        code, _, err = run(capsys, ["optimize-noise", "--config", path])
        assert code == 2
        assert "reference_y" in err

    def test_design_failing_its_check_exits_two(self, capsys, tmp_path, monkeypatch):
        # move 1e-4 of input 0's mass from its lowest to its highest output
        original = harness.linprog

        def off_center(*args, **kwargs):
            res = original(*args, **kwargs)
            x = res.x.copy()
            used = np.flatnonzero(x[:9] > 1e-3)
            x[used[0]] -= 1e-4
            x[used[-1]] += 1e-4
            res.x = x
            return res

        monkeypatch.setattr(harness, "linprog", off_center)
        code, out, err = run(capsys, ["optimize-noise", "--config", self.small_config(tmp_path)])
        assert code == 2
        assert out == ""
        assert "zero-mean violation" in err


class TestScalingStudy:
    def config(self, tmp_path, **overrides):
        obj = {
            "base_level": 1e4,
            "multipliers": [1.0, 4.0, 16.0],
            "price": 1.0,
            "trade_size": 1.0,
            "privacy": {"tau": [0, 2], "epsilon": 2},
            "expect_max_spread": 0.02,
        }
        obj.update(overrides)
        return write_config(tmp_path, obj)

    def test_pass_within_spread(self, capsys, tmp_path):
        code, payload, summary, _ = run_json(
            capsys, ["scaling-study", "--config", self.config(tmp_path)]
        )
        assert code == 0
        assert summary.endswith("PASS")
        spread = payload["study"]["max_relative_spread"]
        assert spread == pytest.approx(0.012287754726082336, rel=1e-9)

    def test_too_tight_spread_fails(self, capsys, tmp_path):
        path = self.config(tmp_path, expect_max_spread=1e-6)
        code, _, summary, _ = run_json(capsys, ["scaling-study", "--config", path])
        assert code == 1
        assert summary.endswith("FAIL")

    def test_csv_rows(self, capsys, tmp_path):
        path = self.config(tmp_path)
        code, out, _ = run(capsys, ["scaling-study", "--config", path, "--output", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "multiplier,level,gamma,liquidity,fee_liquidity_product"
        assert len(lines) == 1 + 3 + 1

    def test_multipliers_must_be_numbers(self, capsys, tmp_path):
        path = self.config(tmp_path, multipliers=[1.0, "four"])
        code, _, err = run(capsys, ["scaling-study", "--config", path])
        assert code == 2
        assert "multipliers" in err


# -- every config ends in standard JSON with exit 0/1, or an error with exit 2 --

PRIVACY = {"tau": [0.0, 2.0], "epsilon": 2.0}
README_CONFIGS = {  # the README's simulate, optimize-noise and scaling-study configs
    "simulate": {
        "curve": {"family": "constant_product", "level": 1e4},
        "initial_x": 100.0,
        "true_price": 1.5,
        "privacy": PRIVACY,
        "strategy": {"kind": "noise_chasing", "max_rounds": 8},
        "fee_policy": {"policy": "noise_fee"},
        "noise": {"kind": "binary"},
        "replicas": 10000,
        "seed": 42,
        "expect": "ci_contains_or_below_zero",
    },
    "optimize-noise": {
        "curve": {"family": "constant_product", "level": 1e4},
        "reference_x": 100.0,
        "privacy": PRIVACY,
        "n_inputs": 21,
        "n_outputs": 41,
        "expect": {"max_average_fee": 0.017, "max_fee_at": [1.0, 0.017]},
    },
    "scaling-study": {
        "base_level": 1e4,
        "multipliers": [1, 4, 16],
        "price": 1.0,
        "trade_size": 1.0,
        "privacy": PRIVACY,
        "expect_max_spread": 0.02,
    },
}


def field_paths(obj, prefix=()):
    """The path of every field of obj, those of nested objects included."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


FIELDS = [(command, path) for command, obj in README_CONFIGS.items() for path in field_paths(obj)]
DROP = object()
SUBSTITUTES = st.one_of(
    st.just(DROP),
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.lists(st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3)), max_size=3),
    st.integers(-10**6, -1),
    st.floats(-1e6, -1e-300),
)


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(FIELDS), value=SUBSTITUTES)
@example(field=("optimize-noise", ("expect", "max_fee_at")), value=[None, 0.017])
@example(field=("optimize-noise", ("expect", "max_fee_at")), value=[True, 0.017])
@example(field=("simulate", ("strategy", "max_rounds")), value=-3)
@example(field=("simulate", ("seed",)), value=-1)
@example(field=("optimize-noise", ("n_inputs",)), value=10**20)
@example(field=("optimize-noise", ("n_outputs",)), value=10**20)
# an empty path replaces the whole config: two that ended in a traceback.
# A half-width of 2.5e-324 rounds to 0, so the biased atoms coincide.
@example(field=("simulate", ()), value={
    **README_CONFIGS["simulate"], "true_price": 2.0, "privacy": {"tau": [0, 5e-324], "epsilon": 2},
    "strategy": {"kind": "case1", "trade_size": 0.0}, "noise": {"kind": "biased_binary", "mu": 0.0},
})
# e^-x of an LMSR reserve at price 5e-324 underflows to 0
@example(field=("simulate", ()), value={
    **README_CONFIGS["simulate"], "curve": {"family": "lmsr", "level": 1.5}, "initial_x": 1.2,
    "true_price": 5e-324,
})
def test_every_config_ends_in_json_or_an_error(tmp_path_factory, field, value):
    command, path = field
    obj = copy.deepcopy(README_CONFIGS[command]) if path else value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if path and value is DROP:
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = value
    config = tmp_path_factory.mktemp("fuzz") / "config.json"
    config.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(config), "--output", "json"])  # never raises
    if code == 2:
        assert out.getvalue() == ""
        assert "error: " in err.getvalue()
    else:
        assert code in (0, 1)
        doc, _, _ = out.getvalue().rpartition("}\n")
        json.loads(doc + "}\n", parse_constant=reject_constant)


# -- every flag combination ends in standard JSON with exit 0/1, or exit 2 ------

FLAG_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -1.0, 1e-7, 1.0, 2.0, 100.0, 1000.0, 1e308, -1e308]),
)
EPSILONS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e-7, 2.0, 709.0, 710.0, 1000.0, 1e308]),
    st.floats(min_value=-10.0, max_value=2000.0),
)


# A working pool of each family, as flags; the fuzz replaces up to two values.
FLAG_POOLS = {
    "cp": {"level": 1e4, "x": 100.0, "delta": 1.0, "lo": 0.0, "hi": 2.0},
    "lmsr": {"level": 1.0, "x": 1.0, "delta": 0.05, "lo": 0.0, "hi": 0.1},
    "csum": {"level": 300.0, "slope": 1.5, "x": 100.0, "delta": 1.0, "lo": 0.0, "hi": 2.0},
}
FAMILIES = {"cp": "cp", "constant_product": "cp", "lmsr": "lmsr", "csum": "csum",
            "constant_sum": "csum"}


@st.composite
def flag_argv(draw):
    """quote-fee, attack-demo or verify-pldp on a drawn pool, trade and privacy spec.

    Values are attached with '=', as argparse would take '-inf' for a flag.
    """
    command = draw(st.sampled_from(["quote-fee", "attack-demo", "verify-pldp"]))
    family = draw(st.sampled_from(sorted(FAMILIES)))
    flags = dict(FLAG_POOLS[FAMILIES[family]])
    for name in draw(st.sets(st.sampled_from(sorted(flags) + ["slope"]), max_size=2)):
        flags[name] = draw(FLAG_NUMBERS)
    privacy = [f"--tau={flags['lo']!r},{flags['hi']!r}", f"--epsilon={draw(EPSILONS)!r}"]
    if command == "verify-pldp":
        return [command, *privacy, f"--grid={draw(st.integers(-2, 201))}"]
    argv = [command, f"--curve={family}"]
    argv += [f"--{name}={flags[name]!r}" for name in ("level", "slope", "x", "delta") if name in flags]
    argv += privacy
    if command == "attack-demo":
        argv.append(f"--seed={draw(st.integers(-1, 2**32))}")
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=flag_argv())
@example(argv=["verify-pldp", "--tau", "0,2", "--epsilon", "1000", "--grid", "101"])
@example(argv=["verify-pldp", "--tau", "0,2", "--epsilon", "2", "--grid", str(10**20)])
@example(argv=[
    "attack-demo", "--curve", "cp", "--level", "1e4", "--x", "100", "--delta", "1",
    "--tau", "0,2", "--epsilon", "1000", "--seed", "3",
])
@example(argv=[
    "quote-fee", "--curve", "cp", "--level", "1e4", "--x", "100", "--delta", "1",
    "--tau", "0,2", "--epsilon", "1000",
])
@example(argv=[  # e^-x rounds onto 2 - level at the natural lower bound's next float
    "attack-demo", "--curve", "lmsr", "--level", "1.484375", "--x", "0.6623755218931917",
    "--delta", "0", "--tau", "0,0.001", "--epsilon", "2", "--seed", "0",
])
@example(argv=[  # expm1 of a displacement of 998.5 overflows
    "quote-fee", "--curve", "lmsr", "--level", "1.5", "--x", "1000", "--delta", "0",
    "--tau=-998.5,0", "--epsilon", "30",
])
def test_every_flag_set_ends_in_json_or_an_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--output", "json"])  # never raises
    if code == 2:
        assert out.getvalue() == ""
        assert "error: " in err.getvalue()
    else:
        assert code in (0, 1)
        doc, _, _ = out.getvalue().rpartition("}\n")
        json.loads(doc + "}\n", parse_constant=reject_constant)
