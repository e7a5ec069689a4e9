"""Digest of the command-line output on a fixed population of models.

Writes the test suite's 500 acceptance-population systems as model files
into DIR, then runs eight commands of ``sbcheck.cli.run`` on them and on the
four bundled models: ``check`` and ``relation`` in both modes with
``--format json``, ``flatten --format json``, ``export --stage kripke
--format json``, and ``verify-relation`` in both modes on the model's full
satisfaction grid (every pair whose behaviour state satisfies the label of
its structure state), written into DIR as a relation file; the grid breaks
clauses (i), (ii) and (iii) of both modes, so their messages enter the
digest.  Then it writes the corridor rings of 1, 2 and 3 blocks from the
test suite as model files and runs ``check`` in both modes with ``--format
json`` on them: their witnesses close cycles that go once around the ring.
Prints one line per run (file, command, exit code, sha256 of stdout) and,
on stderr, two combined sha256 digests: ``TOTAL`` over the eight commands
on the population, and ``TOTAL+corridor`` over every run.  Two checkouts
that print the same combined digests produce the same output on these
models.

Usage, from the root of a checkout:

    PYTHONPATH=src:tests python tools/output_digest.py DIR > digest.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

from helpers import acceptance_schedule, corridor_system

from sbcheck import cli, models
from sbcheck.model import load_model

COMMANDS = (
    ("check", "--mode", "weak", "--format", "json"),
    ("check", "--mode", "strong", "--format", "json"),
    ("relation", "--mode", "weak", "--format", "json"),
    ("relation", "--mode", "strong", "--format", "json"),
    ("flatten", "--format", "json"),
    ("export", "--stage", "kripke", "--format", "json"),
    ("verify-relation", "--relation", "{grid}", "--mode", "weak"),
    ("verify-relation", "--relation", "{grid}", "--mode", "strong"),
)
N_SYSTEMS = 500
CORRIDOR_COMMANDS = COMMANDS[:2]
CORRIDOR_BLOCKS = (1, 2, 3)


def write_model(out_dir: str, name: str, sys_) -> str:
    path = os.path.join(out_dir, f"{name}.sb")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cli.system_to_dsl(sys_))
    return path


def model_files(out_dir: str) -> list[str]:
    """The bundled models, then the acceptance systems written to ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    files = [str(models.path(n)) for n in models.NAMES]
    files += [write_model(out_dir, f"acc{k}", cli.gen_random(k, *acceptance_schedule(k)))
              for k in range(N_SYSTEMS)]
    return files


def grid_file(out_dir: str, path: str) -> str:
    """Write the satisfaction grid of the model at ``path`` as a relation file."""
    sys_ = load_model(path)
    pairs = [[q, r] for q in sorted(sys_.b.states) for r in sorted(sys_.s.states)
             if sys_.sat(q, sys_.s.label(r))]
    grid = os.path.join(out_dir, os.path.basename(path) + ".grid.json")
    with open(grid, "w", encoding="utf-8") as fh:
        json.dump({"pairs": pairs}, fh)
    return grid


def run_command(path: str, command: tuple[str, ...], args: list[str]) -> bytes:
    """Run one command on ``path``, print its line and return its digest entry."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run([command[0], path, *args])
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    print(os.path.basename(path), " ".join(command), code, digest)
    return f"{code} {digest}".encode()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    total = hashlib.sha256()
    for path in model_files(argv[0]):
        grid = grid_file(argv[0], path)
        for command in COMMANDS:
            total.update(run_command(path, command,
                                     [a.format(grid=grid) for a in command[1:]]))
    extended = total.copy()
    for n in CORRIDOR_BLOCKS:
        path = write_model(argv[0], f"corridor{n}", corridor_system(n))
        for command in CORRIDOR_COMMANDS:
            extended.update(run_command(path, command, list(command[1:])))
    print("TOTAL", total.hexdigest(), file=sys.stderr)
    print("TOTAL+corridor", extended.hexdigest(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
