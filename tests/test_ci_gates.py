"""``tools/ci_gates.py`` without a known gate name: it exits 2 and lists
every gate, and runs no command."""

import importlib.util
import pathlib
import subprocess

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ci_gates.py"


@pytest.fixture
def ci_gates(monkeypatch):
    spec = importlib.util.spec_from_file_location("ci_gates", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def refuse(argv, **kwargs):
        raise AssertionError(f"ran {argv!r}")

    monkeypatch.setattr(subprocess, "run", refuse)
    return module


@pytest.mark.parametrize("argv", [[], ["bogus"], ["exhaustive", "bogus"]],
                         ids=["no-name", "unknown", "known-and-unknown"])
def test_usage_exits_2_and_lists_every_gate(ci_gates, capsys, argv):
    assert ci_gates.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == "usage: ci_gates.py NAME..."
    assert [line for line in lines if line.startswith("unknown gate:")] == [
        f"unknown gate: {name}" for name in argv if name not in ci_gates.GATES]
    listed = [line.split()[0] for line in lines if line.startswith("  ")]
    assert listed == list(ci_gates.GATES)
