"""The README's Library example and CLI commands run as written, its
configuration table lists the keys the parser reads, and every package name
it cites exists, so the documented API, commands and schema cannot drift
from the code."""

import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import uav_twoway
from uav_twoway import cli
from uav_twoway.params import CONFIG_SCHEMA, SystemParams

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def section(heading: str) -> str:
    """The text under ``heading`` up to the next heading of its level."""
    level = heading.split(" ", 1)[0]
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n{heading}\n", 1)[1].split(f"\n{level} ", 1)[0]


def library_example() -> str:
    """The first ``python`` block under the ``## Library`` heading."""
    return section("## Library").split("```python\n", 1)[1].split("\n```", 1)[0]


def cli_commands() -> list:
    """The ``uav-twoway`` lines of the first ``bash`` block under ``## CLI``,
    continuation lines joined."""
    block = section("## CLI").split("```bash\n", 1)[1].split("\n```", 1)[0]
    lines = re.sub(r"\s*\\\n\s*", " ", block).splitlines()
    return [line for line in lines if line.startswith("uav-twoway ")]


def cited_names() -> list:
    """Each backticked dotted name outside the code blocks whose first part is
    a module of the package (or the package itself), as written up to its
    first character that is not part of a dotted name."""
    modules = {info.name for info in pkgutil.iter_modules(uav_twoway.__path__)}
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    names = (re.match(r"\w+(?:\.\w+)+", span) for span in spans)
    return sorted({name[0] for name in names
                   if name and name[0].split(".")[0] in modules | {"uav_twoway"}})


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


@pytest.mark.parametrize("command", cli_commands())
def test_cli_command_runs(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(command)[1:]) == 0


def test_readme_shows_cli_commands():
    assert len(cli_commands()) >= 5


@pytest.mark.parametrize("name", cited_names())
def test_cited_name_exists(name):
    first, *rest = name.split(".")
    # a params name may be a SystemParams attribute, read off a parameter set
    owners = [uav_twoway if first == "uav_twoway"
              else importlib.import_module(f"uav_twoway.{first}")]
    if first == "params":
        owners.append(SystemParams)
    for owner in owners:
        for attribute in rest:
            owner = getattr(owner, attribute, None)
        if owner is not None:
            return
    pytest.fail(f"README cites {name}, which does not exist")
