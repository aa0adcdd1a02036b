#!/usr/bin/env python3
"""The golden corpus: the CLI's output for a fixed list of commands.

    python tools/golden.py refreeze    # rewrite the files of every command whose output moved

``tests/golden/commands.txt`` lists the commands, one ``name argv...`` line
each. A command's expected stdout is ``name.out``; its stderr is
``name.err`` and its exit code ``name.exit``, each present only when it is
not empty or 0. ``tests/test_golden.py`` runs every command in process and
compares bytes.

``refreeze`` runs every command, rewrites the files whose bytes moved,
removes files no command owns, and prints for each changed command the
rows and columns that moved and the largest absolute and relative
difference per column. On an unchanged tree it writes and prints nothing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SUFFIXES = ("out", "err", "exit")
SHOWN_ROWS = 10  # moved rows listed by number per command


def commands() -> dict[str, list[str]]:
    """name -> argv, in the order of ``commands.txt``."""
    listing = {}
    for line in (GOLDEN / "commands.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            name, *argv = shlex.split(line)
            listing[name] = argv
    return listing


def run(argv: list[str]) -> dict[str, bytes]:
    """``cli.main(argv)`` in this process, as the bytes of the files it
    freezes to: suffix -> content, with an empty stderr and exit 0 left out."""
    from uav_twoway import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    result = {"out": out.getvalue().encode()}
    if err.getvalue():
        result["err"] = err.getvalue().encode()
    if code:
        result["exit"] = f"{code}\n".encode()
    return result


def frozen(name: str) -> dict[str, bytes]:
    """The files of ``name`` as they are on disk, in ``run``'s form."""
    paths = {suffix: GOLDEN / f"{name}.{suffix}" for suffix in SUFFIXES}
    return {suffix: path.read_bytes() for suffix, path in paths.items() if path.exists()}


def _number(cell: str) -> float | None:
    """A cell's value: the float after its last '=', if there is one."""
    try:
        return float(cell.rsplit("=", 1)[-1])
    except ValueError:
        return None


def _table(text: str, is_csv: bool) -> tuple[list[str], list[list[str]]]:
    """Column names and rows: a CSV's header and records, or a text's
    lines split on whitespace, its columns named by position."""
    if is_csv:
        header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
        return header, rows
    rows = [line.split() for line in text.splitlines()]
    return [f"field {i + 1}" for i in range(max(map(len, rows), default=0))], rows


def moved(old: str, new: str, is_csv: bool) -> list[str]:
    """Report lines for one output: the rows and columns that moved, and
    the largest absolute and relative difference of each numeric column."""
    old_columns, old_rows = _table(old, is_csv)
    columns, rows = _table(new, is_csv)
    if old_columns != columns:
        return [f"columns: {', '.join(old_columns)} -> {', '.join(columns)}"]
    lines = [] if len(old_rows) == len(rows) else [f"rows: {len(old_rows)} -> {len(rows)}"]
    changed_rows, largest, texts = [], {}, {}
    for number, (before, after) in enumerate(zip(old_rows, rows), 1):
        if before == after:
            continue
        changed_rows.append(number)
        for index in range(max(len(before), len(after))):
            a = before[index] if index < len(before) else ""
            b = after[index] if index < len(after) else ""
            if a == b:
                continue
            name = columns[index] if index < len(columns) else f"field {index + 1}"
            x, y = _number(a), _number(b)
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                texts[name] = texts.get(name, 0) + 1
                continue
            gap = abs(y - x)
            rel = gap / abs(x) if x else math.inf
            worst = largest.get(name, (0.0, 0.0))
            largest[name] = (max(worst[0], gap), max(worst[1], rel))
    if changed_rows:
        shown = ", ".join(map(str, changed_rows[:SHOWN_ROWS]))
        more = f", ... ({len(changed_rows)} of {len(rows)})" if len(
            changed_rows) > SHOWN_ROWS else f" ({len(changed_rows)} of {len(rows)})"
        lines.append(f"rows moved: {shown}{more}")
        names = [name for name in columns if name in largest or name in texts]
        lines.append(f"columns moved: {', '.join(names)}")
    for name in columns:
        if name in largest:
            gap, rel = largest[name]
            lines.append(f"  {name}: largest abs {gap!r}, largest rel {rel!r}")
        if name in texts:
            lines.append(f"  {name}: {texts[name]} non-numeric cell(s) changed")
    return lines


def report(name: str, argv: list[str], old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """What moved in one command's files, one line per finding."""
    if not old:
        return [f"{name}: new"]
    lines = [f"{name}: {shlex.join(argv)}"]
    for suffix in SUFFIXES:
        before, after = old.get(suffix, b"").decode(), new.get(suffix, b"").decode()
        if before == after:
            continue
        if suffix == "exit":
            lines.append(f" exit: {before.strip() or 0} -> {after.strip() or 0}")
            continue
        is_csv = suffix == "out" and argv[0] in ("sweep", "compare") and "exit" not in new
        lines.append(f" std{suffix}:")
        lines.extend(f"  {line}" for line in moved(before, after, is_csv))
    return lines


def refreeze() -> int:
    listing = commands()
    for name, argv in listing.items():
        old, new = frozen(name), run(argv)
        if old == new:
            continue
        print("\n".join(report(name, argv, old, new)), flush=True)
        for suffix in SUFFIXES:
            path = GOLDEN / f"{name}.{suffix}"
            if suffix in new:
                path.write_bytes(new[suffix])
            elif path.exists():
                path.unlink()
    for path in sorted(GOLDEN.iterdir()):
        if path.suffix[1:] in SUFFIXES and path.stem not in listing:
            print(f"{path.stem}: no longer listed, {path.name} removed")
            path.unlink()
    return 0


def main(argv) -> int:
    if argv != ["refreeze"]:
        print("usage: golden.py refreeze", file=sys.stderr)
        return 2
    return refreeze()


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
