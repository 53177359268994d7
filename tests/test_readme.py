"""The README's examples, run as written.

The Library block is executed, and each value it prints must equal the
comment that ends its ``print`` line.  Every line of the Command line
block runs through ``cli.main`` in a fresh directory, in order (the
provider file one line writes is read by the next), and exits 0.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from higgsbetti import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, language):
    """The first ``language`` code block after the line ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_the_library_example_prints_what_its_comments_say():
    code = _block("## Library", "python")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_every_command_line_example_exits_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = _block("## Command line", "sh").replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in text.splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "higgsbetti" for argv in commands)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv[1:]) == 0, shlex.join(argv)
