"""The README's Library example runs as written, so the documented API
cannot drift from the code."""

import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first ``python`` block under the ``## Library`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_runs(capsys):
    exec(compile(library_example(), f"{README.name} (## Library)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # as the example says, the table product repeats average_throughput's bits
    assert printed[3] == printed[2]
