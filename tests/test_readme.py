"""The examples of README.md run and print what it shows."""

import re
import shlex
from itertools import takewhile
from pathlib import Path

import pytest

from dowlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def fenced_block(heading: str) -> list[str]:
    """The lines of the first fenced block after ``heading``."""
    body = README.split(f"\n{heading}\n", 1)[1].split("```", 2)[1]
    return body.splitlines()[1:]  # the first line holds the language tag


CLI = fenced_block("## CLI")
CSV_EXAMPLE = "dowlab triangle --family W --m 2 --n-max 2 --symbolic --format csv"


@pytest.mark.parametrize("line", [line for line in CLI if line.startswith("dowlab ")])
def test_cli_example_exits_0(capsys, line):
    assert main(shlex.split(line)[1:]) == 0


def test_csv_example_prints_the_rows_shown(capsys):
    after = CLI[CLI.index(CSV_EXAMPLE) + 1 :]
    shown = [line.removeprefix("#   ") for line in takewhile(lambda s: s.startswith("#   "), after)]
    assert main(shlex.split(CSV_EXAMPLE)[1:]) == 0
    assert capsys.readouterr().out.splitlines() == shown == ["1", "1, 1", "1 - l, 4 - l, 1"]


def test_library_sketch_returns_the_reprs_shown():
    # each commented line is "expression  # repr", or "# repr: remark"
    namespace: dict = {}
    checked = 0
    for line in fenced_block("## Library sketch"):
        code, _, comment = line.partition("#")
        if comment:
            assert repr(eval(code, namespace)) == comment.split(":")[0].strip(), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 6


def test_every_file_named_in_backticks_exists():
    # the inline code spans outside the fenced blocks; a span that names a
    # .py, .json, .md or .yml file names one of the repository, relative to
    # its root, and a glob such as BENCH_*.json must match at least one
    prose = "".join(README.split("```")[::2])
    paths = [span for span in re.findall(r"`([^`\n]+)`", prose)
             if re.fullmatch(r"[\w.*-]+(/[\w.*-]+)*\.(py|json|md|yml)", span)]
    assert "BENCHMARK.json" in paths
    assert [path for path in paths if not any(ROOT.glob(path))] == []
