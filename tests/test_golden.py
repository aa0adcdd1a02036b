"""The golden corpus: every command in ``tests/golden/commands.txt``,
run in process, prints the bytes frozen next to it. A change that moves an
output re-freezes it with ``python tools/golden.py refreeze``, which
reports the rows and columns that moved and by how much."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

COMMANDS = golden.commands()


@pytest.mark.parametrize("name", COMMANDS)
def test_golden_output(name):
    assert golden.run(COMMANDS[name]) == golden.frozen(name)


def test_every_golden_file_belongs_to_a_command():
    stems = {path.stem for path in golden.GOLDEN.iterdir()
             if path.suffix[1:] in golden.SUFFIXES}
    assert stems == set(COMMANDS)


def test_every_rejected_command_prints_one_short_line():
    # each names its flag in one line of under 500 bytes
    frozen = [golden.frozen(name) for name in COMMANDS]
    rejected = [files["err"] for files in frozen if files.get("exit") == b"2\n"]
    assert len(rejected) >= 11
    for err in rejected:
        assert err.count(b"\n") == 1 and len(err) < 500, err


def test_report_names_the_rows_and_columns_that_moved():
    old = "a,b,c\n1,x,0.5\n2,y,0.25\n3,z,1.0\n"
    new = "a,b,c\n1,x,0.5\n2,w,0.2500000000000001\n3,z,1.5\n"
    assert golden.moved(old, new, is_csv=True) == [
        "rows moved: 2, 3 (2 of 3)",
        "columns moved: b, c",
        "  b: 1 non-numeric cell(s) changed",
        "  c: largest abs 0.5, largest rel 0.5",
    ]
    assert golden.moved("x=1.0 y\n", "x=1.25 y\n", is_csv=False) == [
        "rows moved: 1 (1 of 1)", "columns moved: field 1",
        "  field 1: largest abs 0.25, largest rel 0.25"]
