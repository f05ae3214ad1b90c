"""The Library tour in README.md runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_tour_runs_from_the_repo_root(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_tour"})
    assert out.getvalue().splitlines() == ["{-1/2, -1}", "True"]
