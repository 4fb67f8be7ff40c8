"""The README's CLI walkthrough must keep parsing with the real CLI parser."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from specrelax.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of every `specrelax ...` line in the README's shell blocks, continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["specrelax"]:
                commands.append(words[1:])
    return commands


def test_readme_cli_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"make-model", "train", "decode", "oracle"}
    for argv in commands:
        parser, _ = build_parser()
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: specrelax {shlex.join(argv)}")
