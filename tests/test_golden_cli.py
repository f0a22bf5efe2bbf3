"""The CLI's bytes, held against outputs recorded from an earlier tree.

golden_cli/commands.json lists the commands: the README's, both acceptance
witness scans at 20k replicas, attack-demo at three seeds and verify-pldp on
a narrow and a wide interval. Each has its arguments and, if it reads one,
its config; "{config}" in the arguments stands for the config file's path.
golden_cli/expected.json holds what each command gave: its exit code, and
its stdout in golden_cli/<name>.out or, for an output too large to keep, the
sha256 of it. Each command runs in-process through cli.main, as
test_demos.py runs the demos, and its stdout must match byte for byte. A
mismatch names the first JSON path that differs.

These bytes are the CLI's contract. A change to them is made on purpose:
rerun ``python tests/test_golden_cli.py --record`` and say why in
CHANGES.md. optimize-noise's bytes depend on the HiGHS solver that scipy
ships, so expected.json keeps the scipy version they were recorded with.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from noisycfmm import cli

GOLDEN = Path(__file__).resolve().parent / "golden_cli"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())["commands"]
# outputs above this many bytes are kept as their sha256 (the simulate CSV, 275 KB)
INLINE_LIMIT = 64 * 1024


def run(name: str, workdir: Path) -> tuple[int, str]:
    """cli.main on command ``name``, with its config written to workdir; (exit code, stdout)."""
    command = COMMANDS[name]
    config = workdir / f"{name}.json"
    if "config" in command:
        config.write_text(json.dumps(command["config"]))
    argv = [str(config) if arg == "{config}" else arg for arg in command["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def scipy_version() -> str:
    import scipy

    return scipy.__version__


def first_difference(got, want, path: str = "$") -> str | None:
    """The first JSON path at which got and want differ, keys in sorted order; None if
    they are equal. Numbers compare by repr, which tells -0.0 from 0.0 and 1 from 1.0."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(got.keys() | want.keys()):
            if key not in got or key not in want:
                return f"{path}.{key}"
            found = first_difference(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(got, list) and isinstance(want, list):
        for i, (g, w) in enumerate(zip(got, want)):
            found = first_difference(g, w, f"{path}[{i}]")
            if found:
                return found
        return None if len(got) == len(want) else f"{path}[{min(len(got), len(want))}]"
    return None if repr(got) == repr(want) else path


def json_document(stdout: str):
    """The JSON document of a json-mode stdout: everything before its summary line."""
    doc, _, _ = stdout.rpartition("}\n")
    return json.loads(doc + "}")


def mismatch(got: str, want: str) -> str:
    """Where stdout got departs from want."""
    try:
        path = first_difference(json_document(got), json_document(want))
    except ValueError:
        path = None
    if path is not None:
        return f"first JSON path that differs: {path}"
    lines = [(g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w]
    if lines:
        return f"first line that differs: {lines[0][0]!r}, recorded {lines[0][1]!r}"
    return f"{len(got)} bytes, recorded {len(want)}"


@pytest.fixture(scope="module")
def expected():
    return json.loads((GOLDEN / "expected.json").read_text())


def test_every_command_is_recorded(expected):
    assert sorted(expected["commands"]) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_bytes_match_the_record(name, expected, tmp_path):
    want = expected["commands"][name]
    code, out = run(name, tmp_path)
    toolchain = ""
    if scipy_version() != expected["scipy"]:
        toolchain = f" (recorded with scipy {expected['scipy']}, running {scipy_version()})"
    assert code == want["exit_code"], f"{name} exited {code}{toolchain}"
    if "stdout_sha256" in want:
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == want["stdout_sha256"], f"{name}: stdout sha256 differs{toolchain}"
    else:
        recorded = (GOLDEN / f"{name}.out").read_text()
        assert out == recorded, f"{name}: {mismatch(out, recorded)}{toolchain}"


def test_first_difference_names_the_path():
    want = {"a": [1.0, {"b": 0.0}], "c": "x"}
    assert first_difference(want, want) is None
    assert first_difference({"a": [1.0, {"b": -0.0}], "c": "x"}, want) == "$.a[1].b"
    assert first_difference({"a": [1.0], "c": "x"}, want) == "$.a[1]"
    assert first_difference({"a": [1.0, {"b": 0.0}]}, want) == "$.c"


def record(workdir: Path) -> None:
    """Run every command and write its exit code and stdout to golden_cli."""
    commands = {}
    for name in sorted(COMMANDS):
        code, out = run(name, workdir)
        entry = {"exit_code": code}
        if len(out.encode()) > INLINE_LIMIT:
            entry["stdout_sha256"] = hashlib.sha256(out.encode()).hexdigest()
            (GOLDEN / f"{name}.out").unlink(missing_ok=True)
        else:
            (GOLDEN / f"{name}.out").write_text(out)
        commands[name] = entry
    document = {"scipy": scipy_version(), "commands": commands}
    (GOLDEN / "expected.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_cli.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
