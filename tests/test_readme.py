"""The README's library example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import mesoped

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(tmp_path):
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "sim.step()" in code and "max(state.density)" in code
    script = tmp_path / "example.py"
    script.write_text(code)
    src = Path(mesoped.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
