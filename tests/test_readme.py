"""The README's library example must keep running against the package."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def quick_start_python():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "Quick start should hold one Python block"
    return blocks[0]


def test_quick_start_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ns = {}
    exec(compile(quick_start_python(), "README.md", "exec"), ns)
    traj = ns["traj"]
    printed = capsys.readouterr().out.split()
    assert printed == [traj.verdict.status, str(traj.energies[-1])]
    assert (tmp_path / "out" / "trace.csv").exists()
