"""The README's console session runs as shown.

Each ``$ modraft ...`` command of the ``console`` block in README.md runs
through ``cli.main`` in a fresh directory, in order, with ``\\``
continuations joined; its stdout must be the lines printed under it, up to
the next command (blank lines between commands only separate them).
"""

from __future__ import annotations

import shlex
from pathlib import Path

from modraft.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def console_session() -> "list[tuple[list[str], str]]":
    """(argv, expected stdout) of each command of the console block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("```console\n", 1)[1].split("\n```", 1)[0]
    session: list[tuple[list[str], list[str]]] = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
            assert argv[0] == "modraft", line
            session.append((argv[1:], []))
        elif line:
            session[-1][1].append(f"{line}\n")
    return [(argv, "".join(out)) for argv, out in session]


def test_the_readme_console_session_prints_what_it_shows(tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.chdir(tmp_path)
    session = console_session()
    assert [argv[0] for argv, _ in session] == [
        "new", "add", "add", "list", "spec", "sign", "verify", "render"]
    for argv, expected in session:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == expected, argv
    assert (tmp_path / "sheet.svg").read_bytes().startswith(b"<?xml")
