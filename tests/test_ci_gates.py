"""``tools/ci_gates.py`` without a known gate name: it exits 2 and lists
every gate, and runs no command. A gate's run prints its docstring, and
the workflow runs every gate in a step named after it."""

import importlib.util
import pathlib
import re
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ci_gates.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


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


def test_gate_prints_its_docstring_under_its_name(ci_gates, capsys, monkeypatch):
    def gate(out):
        """What the gate checks."""

    monkeypatch.setattr(ci_gates, "GATES", {"fake": gate})
    assert ci_gates.main(["fake"]) == 0
    assert capsys.readouterr().out == "== fake\nWhat the gate checks.\n"


def test_workflow_names_each_step_after_its_gate(ci_gates):
    steps = re.findall(r"- name: (.+)\n\s+run: python tools/ci_gates\.py (.+)\n",
                       WORKFLOW.read_text())
    assert [name for name, _ in steps] == [gate for _, gate in steps] == list(ci_gates.GATES)
