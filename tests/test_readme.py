"""The README's code examples run as written."""

import contextlib
import io
import re

from conftest import ROOT


def test_library_example_runs(monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "<README.md python block>", "exec"), {})
    assert out.getvalue().startswith("singular: Hessian rank 6 of 16\n")
