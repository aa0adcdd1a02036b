"""The README's Library example runs as written, and its configuration
table lists the keys the parser reads, so the documented API and schema
cannot drift from the code."""

import pathlib
import re

from uav_twoway.params import CONFIG_SCHEMA

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def section(heading: str) -> str:
    """The text under ``heading`` up to the next heading of its level."""
    level = heading.split(" ", 1)[0]
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n{heading}\n", 1)[1].split(f"\n{level} ", 1)[0]


def library_example() -> str:
    """The first ``python`` block under the ``## Library`` heading."""
    return section("## Library").split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_runs(capsys):
    exec(compile(library_example(), f"{README.name} (## Library)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # as the example says, the table product repeats average_throughput's bits
    assert printed[3] == printed[2]


def test_config_table_names_every_key_once():
    rows = [line for line in section("### Configuration file schema").splitlines()
            if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(CONFIG_SCHEMA)
