"""The README's Quick start must keep working against the package: its
library example runs, and no ``phaseflow`` command line of it is rejected."""

import os
import re
import shlex

from phaseflow.cli import EXIT_CONFIG, main

ROOT = os.path.join(os.path.dirname(__file__), "..")
README = os.path.join(ROOT, "README.md")

#: steps each copied config keeps, so the whole Quick start stays quick
QUICK_STEPS = 200


def quick_start():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split("## Quick start", 1)[1].split("\n## ", 1)[0]


def quick_start_python():
    blocks = re.findall(r"```python\n(.*?)```", quick_start(), flags=re.S)
    assert len(blocks) == 1, "Quick start should hold one Python block"
    return blocks[0]


def quick_start_commands():
    """Each ``phaseflow ...`` line of the Quick start as an argv list, with
    backslash continuations joined."""
    shell = re.findall(r"```\n(.*?)```", quick_start(), flags=re.S)
    lines = "\n".join(shell).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("phaseflow ")]


def copy_configs(dest):
    """The shipped configs with run.t_end cut to QUICK_STEPS steps."""
    src = os.path.join(ROOT, "configs")
    os.makedirs(dest)
    for name in os.listdir(src):
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            text = fh.read()
        dt = float(re.search(r"^run\.dt = (\S+)$", text, flags=re.M)[1])
        text = re.sub(r"^run\.t_end = \S+$",
                      f"run.t_end = {QUICK_STEPS * dt!r}", text,
                      flags=re.M)
        with open(os.path.join(dest, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:    # argparse rejects a command line this way
        return exc.code


def test_quick_start_commands_run(tmp_path, monkeypatch):
    # a run cut short may fail its convergence assertions (exit 4); what
    # must not happen is a command line or a file it names being rejected
    monkeypatch.chdir(tmp_path)
    copy_configs(tmp_path / "configs")
    commands = quick_start_commands()
    assert commands, "Quick start should list phaseflow commands"
    for argv in commands:
        assert exit_code(argv) != EXIT_CONFIG, " ".join(argv)


def test_quick_start_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ns = {}
    exec(compile(quick_start_python(), "README.md", "exec"), ns)
    traj = ns["traj"]
    printed = capsys.readouterr().out.split()
    assert printed == [traj.verdict.status, str(traj.energies[-1])]
    assert (tmp_path / "out" / "trace.csv").exists()
