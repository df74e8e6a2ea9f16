"""Digests of every file that `phaseflow run` and `phaseflow steady` write
for the shipped configs.

    python tools/output_digests.py [--keep DIR] [CONFIG_DIR]

Runs both commands in-process (``cli.main`` with ``--quiet`` and ``--out``
under a temporary directory, or under DIR with ``--keep``) for every
``*.cfg`` in CONFIG_DIR (default: the repository's ``configs``), then
prints one ``exit  config/command code`` line per command and
``sha256  path`` for each file written, sorted by path.  Two trees write
the same outputs iff they print the same lines, so a diff of the two
printouts checks a claim of byte-identical outputs; ``--keep`` leaves the
files for ``tools/output_diff.py`` to measure where they differ.
Exits 1 when a command exits nonzero.
"""

import argparse
import contextlib
import glob
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from phaseflow.cli import main as phaseflow_main  # noqa: E402

COMMANDS = ("run", "steady")


def digests(config_dir, keep=None):
    """(lines, worst exit code) for the configs in config_dir: the exit
    lines in run order, then the digest lines sorted by path.  The files
    are written under ``keep`` when given, else under a temporary
    directory that is removed."""
    configs = sorted(glob.glob(os.path.join(config_dir, "*.cfg")))
    lines, worst = [], 0
    if keep is not None:
        os.makedirs(keep, exist_ok=True)
    with (contextlib.nullcontext(keep) if keep is not None
          else tempfile.TemporaryDirectory()) as tmp:
        for path in configs:
            stem = os.path.splitext(os.path.basename(path))[0]
            for command in COMMANDS:
                out = os.path.join(tmp, stem, command)
                code = phaseflow_main(["--quiet", "--out", out, command, path])
                lines.append(f"exit  {stem}/{command}  {code}")
                worst = max(worst, code)
        written = sorted(os.path.relpath(os.path.join(folder, name), tmp)
                         for folder, _, files in os.walk(tmp)
                         for name in files)
        for rel in written:
            with open(os.path.join(tmp, rel), "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {rel}")
    return lines, worst


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("config_dir", nargs="?",
                        default=os.path.join(ROOT, "configs"))
    parser.add_argument("--keep", metavar="DIR", default=None,
                        help="write the outputs to DIR and keep them")
    args = parser.parse_args()
    lines, worst = digests(args.config_dir, args.keep)
    print("\n".join(lines))
    sys.exit(1 if worst else 0)
