"""The README's examples run as documented, on the names genbs exports."""

import re
import shlex
from pathlib import Path

import pytest

import genbs
from genbs.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang, after):
    """The first fenced ``lang`` block that follows the heading ``after``."""
    tail = README[README.index(after):]
    return re.search(r"```%s\n(.*?)```" % lang, tail, re.S).group(1)


CLI_LINES = [
    line for line in _block("sh", "## CLI").splitlines() if line.startswith("genbs ")
]


def test_python_quick_start(capsys):
    exec(compile(_block("python", "## Library quick start"), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "(s + 1) * (s + 1/2)" in out
    assert "1/4*dx^2" in out


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line(line, capsys):
    # a line documents a non-zero exit code as "exits N" in its comment
    command, _, comment = line.partition(";")
    documented = re.search(r"exits (\d)", comment)
    expected = int(documented.group(1)) if documented else 0
    assert main(shlex.split(command)[1:]) == expected
    assert capsys.readouterr().out


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from genbs import *", namespace)
    assert len(set(genbs.__all__)) == len(genbs.__all__)
    assert all(namespace[name] is getattr(genbs, name) for name in genbs.__all__)
