"""README's library quick start runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "the quick start holds one python block"
    return blocks[0]


def test_library_quick_start_runs(capsys):
    exec(compile(_quick_start(), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4
    assert all(float(v) == float(v) for v in printed)  # no NaN
