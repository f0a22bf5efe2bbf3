"""Package surface: modules share only public names, and __all__ resolves."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import noisycfmm

PACKAGE = Path(noisycfmm.__file__).parent
TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def private_imports(source: str) -> list[str]:
    """Underscore names one module imports from another package module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "noisycfmm"
        if not internal:
            continue
        found.extend(
            f"{'.' * node.level}{node.module or ''}.{alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        )
    return found


def test_no_module_imports_another_modules_private_name():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text()))
    }
    assert offenders == {}


def test_scanner_catches_a_private_import():
    assert private_imports("from .harness import _hidden, shown\n") == [".harness._hidden"]
    assert private_imports("from noisycfmm.market import _x\n") == ["noisycfmm.market._x"]
    assert private_imports("from os import _exit\n") == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute modules a source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


# The mechanism modules compute the noisy trade, its noise and its fee; the
# CLI is the one place that renders and writes them.
MECHANISM_MODULES = ("curve", "privacy", "fee", "market", "strategies", "harness")
OUTPUT_MODULES = {"csv", "json", "contextlib"}


def test_mechanism_modules_write_no_files():
    assert imported_modules("def f():\n    from json import dumps\n") == {"json"}
    offenders = {
        name: sorted(found)
        for name in MECHANISM_MODULES
        if (found := imported_modules((PACKAGE / f"{name}.py").read_text()) & OUTPUT_MODULES)
    }
    assert offenders == {}


def test_every_exported_name_resolves():
    missing = [name for name in noisycfmm.__all__ if not hasattr(noisycfmm, name)]
    assert missing == []
    assert len(set(noisycfmm.__all__)) == len(noisycfmm.__all__)


def test_benchmark_tracer_wraps_the_lp_solver():
    """The traced benchmark run patches each function it lists by module and
    name (harness.linprog, harness.replica_rng, ...) and each curve method;
    a moved or renamed one breaks the run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {m: importlib.import_module(f"noisycfmm.{m}") for m in tracing.MODULES}
    listed = [(modules[m], name) for m, name, _ in tracing.FUNCTIONS]
    listed += [(noisycfmm.TradingCurve, name) for name in tracing.CURVE_METHODS]
    assert ("harness", "linprog", True) in tracing.FUNCTIONS
    assert [f"{owner.__name__}.{name}" for owner, name in listed if not hasattr(owner, name)] == []
    originals = [getattr(owner, name) for owner, name in listed]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, name), original in zip(listed, originals):
            wrapper = getattr(owner, name)
            assert wrapper is not original and wrapper.__wrapped__ is original, name
    finally:
        tracer.uninstall()
    assert [getattr(owner, name) for owner, name in listed] == originals


# Cold start: quote-fee, verify-pldp and scaling-study load neither numpy,
# harness, market nor strategies; attack-demo loads market but neither numpy
# nor harness (its one replica stream is plain-int Philox) nor strategies; only
# the noise LP (optimize-noise) loads scipy, on its first solve.
COLD_START = textwrap.dedent("""
    import contextlib, io, json, sys, tempfile
    import noisycfmm, noisycfmm.cli as cli

    def loaded():
        return {"numpy": "numpy" in sys.modules, "harness": "noisycfmm.harness" in sys.modules,
                "market": "noisycfmm.market" in sys.modules,
                "strategies": "noisycfmm.strategies" in sys.modules,
                "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}

    def run(argv, config=None):
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            json.dump(config, f)
            f.flush()
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv + (["--config", f.name] if config else []))

    scale = {"base_level": 1e4, "multipliers": [1, 4, 16], "price": 1.0, "trade_size": 1.0,
             "privacy": {"tau": [0.0, 2.0], "epsilon": 2.0}, "expect_max_spread": 0.02}
    lean = [
        run(["quote-fee", "--curve", "cp", "--level", "1e4", "--x", "100", "--delta", "1",
             "--tau", "0,2", "--epsilon", "2"]),
        run(["verify-pldp", "--tau", "0,2", "--epsilon", "2", "--grid", "101"]),
        run(["scaling-study"], scale),
    ]
    after_lean = loaded()
    attack = run(["attack-demo", "--curve", "cp", "--level", "1e4", "--x", "100",
                  "--delta", "1", "--tau", "0,2", "--epsilon", "2", "--seed", "3"])
    after_attack = loaded()
    market = {"curve": {"family": "constant_product", "level": 1e4}, "initial_x": 100.0,
              "true_price": 1.5, "privacy": {"tau": [0.0, 2.0], "epsilon": 2.0}, "seed": 42}
    simulate = [
        run(["simulate"], {**market, "strategy": {"kind": "noise_chasing", "max_rounds": 8},
                           "fee_policy": {"policy": "noise_fee"}, "noise": {"kind": "binary"},
                           "replicas": 10000, "expect": "ci_contains_or_below_zero"}),
        run(["simulate"], {**market, "replicas": 200,
                           "strategy": {"kind": "adaptive_random", "policies": 20, "bound": 8}}),
    ]
    random_loaded = "numpy.random" in sys.modules
    lp = {"curve": {"family": "constant_product", "level": 1e4}, "reference_x": 100.0,
          "privacy": {"tau": [0.0, 2.0], "epsilon": 2.0}, "n_inputs": 21, "n_outputs": 41,
          "expect": {"max_average_fee": 0.017, "max_fee_at": [1.0, 0.017]}}
    lp_code = run(["optimize-noise", "--output", "json"], lp)
    print(json.dumps({"lean": lean, "after_lean": after_lean, "attack": attack,
                      "after_attack": after_attack, "simulate": simulate,
                      "random_loaded": random_loaded, "lp_code": lp_code,
                      "solver_loaded": "scipy.optimize" in sys.modules}))
""")


def test_cli_loads_scipy_only_for_the_noise_lp():
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=120,
    )
    result = json.loads(proc.stdout)
    assert result["lean"] == [0, 0, 0]
    assert result["after_lean"] == {
        "numpy": False, "harness": False, "market": False, "strategies": False, "scipy": [],
    }
    assert result["attack"] == 0
    assert result["after_attack"] == {
        "numpy": False, "harness": False, "market": True, "strategies": False, "scipy": [],
    }
    # the Monte Carlo computes its streams without numpy's generators
    assert (result["simulate"], result["random_loaded"]) == ([0, 0], False)
    assert result["lp_code"] == 0
    assert result["solver_loaded"]


def test_harness_names_are_looked_up_on_every_access(monkeypatch):
    from noisycfmm import harness, market

    assert noisycfmm.replica_rng is harness.replica_rng
    replacement = lambda seed, index: None  # noqa: E731
    monkeypatch.setattr(harness, "replica_rng", replacement)
    assert noisycfmm.replica_rng is replacement
    assert "replica_rng" not in vars(noisycfmm)
    monkeypatch.setattr(market, "execute_trade", replacement)
    assert noisycfmm.execute_trade is replacement
    assert "execute_trade" not in vars(noisycfmm)
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        noisycfmm.not_a_name
