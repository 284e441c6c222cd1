"""The README's examples, and the package docstring's, run as written.

The README holds one ``python`` code block.  It runs in a fresh
interpreter from the repository root (its fixture paths are relative to
it) with ``src`` on the path, and each ``print(...)  # value`` line must
print exactly the value its comment shows, so a library name the example
uses that changes or disappears fails here.  The ``Typical use::`` block of
the ``awfskit`` package docstring runs the same way and must exit 0.

Its ``sh`` blocks hold the command line walkthrough.  Each ``$ `` line is
one command, its ``\\`` continuations joined, and the lines after it, up to
the next command, are what it prints: its stdout, then its stderr.  A
``...`` line leaves the rest out.  The commands run in order in a scratch
directory that holds a copy of ``fixtures/``: ``awfskit ...`` through
``awfskit.cli.main``, ``echo '<text>' > <file>`` writes the file, and
``echo $?`` prints the exit code of the command before it.  A command
whose exit code the README does not show must exit 0.
"""

import ast
import io
import os
import re
import shlex
import shutil
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from itertools import takewhile
from pathlib import Path

import pytest

from awfskit.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
SHOWN = re.compile(r"^print\(.*\)\s+# (.+)$")
SH_BLOCK = re.compile(r"^```sh\n(.*?)^```$", re.MULTILINE | re.DOTALL)
WRITE = re.compile(r"echo '([^']*)' > (\S+)")


PACKAGE_DOC = ast.get_docstring(ast.parse(
    (ROOT / "src" / "awfskit" / "__init__.py").read_text(encoding="utf-8")))


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter from the repository root, with
    ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, env=env, timeout=60)


def test_readme_example_prints_its_comments():
    blocks = BLOCK.findall(README)
    assert len(blocks) == 1
    shown = [m.group(1) for m in map(SHOWN.match, blocks[0].splitlines()) if m]
    assert shown, "the example shows no printed value"
    run = run_python(blocks[0])
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == shown


def typical_use(doc: str) -> str:
    """The indented block after ``Typical use::`` in ``doc``, dedented."""
    _, found, rest = doc.partition("Typical use::\n")
    assert found, "the docstring has no 'Typical use::' block"
    lines = takewhile(lambda line: not line.strip() or line.startswith(" "), rest.splitlines())
    return textwrap.dedent("\n".join(lines))


def test_package_docstring_example_runs():
    code = typical_use(PACKAGE_DOC)
    assert "factorise(" in code
    run = run_python(code)
    assert run.returncode == 0, run.stderr


def test_a_broken_docstring_example_fails():
    line = "assert verify_certificate(cert).ok"
    assert PACKAGE_DOC.count(line) == 1
    broken = PACKAGE_DOC.replace(line, "assert not verify_certificate(cert).ok")
    assert run_python(typical_use(broken)).returncode != 0


def shell_examples(text: str) -> list:
    """The ``$ `` commands of the ``sh`` blocks of ``text``, each as
    ``(command, shown)``: its continuations joined, and the output lines
    shown after it, trailing blank lines dropped."""
    examples = []
    for block in SH_BLOCK.findall(text):
        current = None
        for line in block.splitlines():
            if current is not None and current[0].endswith("\\"):
                current[0] = current[0][:-1] + " " + line.strip()
            elif line.startswith("$ "):
                current = [line[2:], []]
                examples.append(current)
            elif current is not None:
                current[1].append(line)
    for example in examples:
        while example[1] and not example[1][-1].strip():
            example[1].pop()
    return [tuple(example) for example in examples]


def _awfskit(argv: list) -> tuple:
    """The exit code of ``awfskit argv`` and what it prints, stdout then stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue().splitlines() + err.getvalue().splitlines()


def run_shell_examples(text: str) -> list:
    """Run the shell examples of ``text`` in the current directory, in
    order; each one whose output or exit code is not the one shown, as
    ``(command, shown, printed)``."""
    examples, status, wrong = shell_examples(text), 0, []
    for n, (command, shown) in enumerate(examples):
        write = WRITE.fullmatch(command)
        if write:
            Path(write[2]).write_text(write[1] + "\n", encoding="utf-8")
            printed = []
        elif command == "echo $?":
            printed = [str(status)]
        else:
            argv = shlex.split(command)
            assert argv[0] == "awfskit", f"the README runs a command this test cannot: {command}"
            status, printed = _awfskit(argv[1:])
            if status and [c for c, _ in examples[n + 1:n + 2]] != ["echo $?"]:
                printed = printed + [f"(exit {status})"]
        cut = shown.index("...") if "..." in shown else None
        if printed[:cut] != shown[:cut]:
            wrong.append((command, shown, printed))
    return wrong


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)


def test_readme_shell_examples_print_what_they_show(scratch):
    commands = [c for c, _ in shell_examples(README) if c.startswith("awfskit ")]
    assert len(commands) >= 7, commands
    assert run_shell_examples(README) == []


@pytest.mark.parametrize("shown,changed", [
    ("ok unit-law: checked 5 elements", "ok unit-law: checked 6 elements"),
    ("filler for ('j', (), (1,)): [4]", "filler for ('j', (), (1,)): [3]"),
    ("$ echo $?\n2\n", "$ echo $?\n0\n"),
    ("not stabilised: chain did not stabilise within 5 stages",
     "not stabilised: chain did not stabilise within 4 stages"),
], ids=["verify-line", "lift-line", "exit-code", "stderr-line"])
def test_a_changed_output_line_fails(scratch, shown, changed):
    assert README.count(shown) == 1
    wrong = run_shell_examples(README.replace(shown, changed))
    assert len(wrong) == 1 and any(changed.strip().splitlines()[-1] in line for line in wrong[0][1])
