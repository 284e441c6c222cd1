"""The README's library example, run as written.

The README holds one ``python`` code block.  It runs in a fresh
interpreter from the repository root (its fixture paths are relative to
it) with ``src`` on the path, and each ``print(...)  # value`` line must
print exactly the value its comment shows, so a library name the example
uses that changes or disappears fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
SHOWN = re.compile(r"^print\(.*\)\s+# (.+)$")


def test_readme_example_prints_its_comments():
    blocks = BLOCK.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(blocks) == 1
    shown = [m.group(1) for m in map(SHOWN.match, blocks[0].splitlines()) if m]
    assert shown, "the example shows no printed value"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT, capture_output=True,
                         text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == shown
