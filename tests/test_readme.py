"""The README's quick start and library example run as written and agree with each other."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from brandmatch.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_quick_start_and_library_agree(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    quick = README.split("## Quick start")[1]
    commands = re.search(r"```sh\n(.*?)```", quick, re.S)[1].replace("\\\n", " ")
    shown = re.search(r"`match` prints the ranked neighbors:\n\n```\n(.*?)```", quick, re.S)[1]
    matched = 0
    for command in commands.splitlines():
        program, *argv = shlex.split(command)
        assert program == "brandmatch", command
        assert main(argv) == 0, command
        out = capsys.readouterr().out
        if argv[0] == "match":
            # the README shows spaces where the report has tabs
            assert [line.split() for line in out.splitlines()] == \
                [line.split() for line in shown.splitlines()], out
            matched += 1
    assert matched == 1, commands

    # the library example reads the quick start's files and prints its report
    library = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S)[1]
    printed, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(printed):
        exec(library, namespace)
    assert printed.getvalue() == Path("demo/report.txt").read_text(encoding="utf-8") + "\n"
    # and its layout and plot are the ones `embed` wrote
    table = Path("demo/embedding.tsv").read_text(encoding="utf-8").splitlines()[1:]
    assert namespace["embedding"].coordinates.tolist() == \
        [[float(x), float(y)] for *_, x, y in (row.split("\t") for row in table)]
    assert namespace["svg"].encode("utf-8") == Path("demo/plot.svg").read_bytes()
