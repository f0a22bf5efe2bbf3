"""Package surface: modules share only public names, and __all__ resolves."""

import ast
import importlib.util
from pathlib import Path

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
