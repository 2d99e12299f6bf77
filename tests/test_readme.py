"""The README's command-line examples run, and print what it shows."""

import contextlib
import io
import pathlib
import shlex

import pytest

from elemhyp import cli

README = pathlib.Path(__file__).parents[1] / "README.md"


def cli_examples():
    """(command, stdout) for each `elemhyp ...` line of the README's
    "Command line" block, the verify sweeps excepted.  stdout is the
    `# {...}` comment on the next line, or None where there is none."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    lines = section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    return [(cmd, nxt[2:] + "\n" if nxt.startswith("# {") else None)
            for cmd, nxt in zip(lines, lines[1:] + [""])
            if cmd.startswith("elemhyp ") and not cmd.startswith("elemhyp verify ")]


def test_readme_has_cli_examples():
    assert len(cli_examples()) >= 8


@pytest.mark.parametrize("cmd,stdout", cli_examples(),
                         ids=[cmd for cmd, _ in cli_examples()])
def test_readme_cli_example(cmd, stdout):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(shlex.split(cmd)[1:])
    assert code == 0
    if stdout is not None:
        assert out.getvalue() == stdout
