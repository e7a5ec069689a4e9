"""Import self time of each ``sbcheck`` module, over fresh interpreters.

Runs ``python -X importtime -c "import sbcheck.cli, sbcheck.models"`` RUNS
times, each in a new process with this checkout's ``src`` first on the
path, and prints per ``sbcheck`` module the median of its self time (in
milliseconds), then the sum of those medians and the median cumulative time
of the whole import, which adds the modules the package loads.  It also
prints whether the child processes write bytecode: when they do not
(``PYTHONDONTWRITEBYTECODE`` or ``-B``), every process compiles the
package's source, and the self times include that compilation.

Usage, from any directory:

    python tools/import_time.py [--runs 9]
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CODE = "import sys, sbcheck.cli, sbcheck.models; print(sys.dont_write_bytecode)"


def one_run() -> tuple[dict[str, float], float, bool]:
    """Self time in ms of each ``sbcheck`` module in one fresh process, the
    cumulative time in ms of the import, and whether that process left
    bytecode writing off."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", CODE],
                          env=env, capture_output=True, text=True, check=True)
    times, total = {}, 0.0
    for line in proc.stderr.splitlines():
        # "import time: <self us> | <cumulative us> | <indented module name>"
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if name.strip() == "sbcheck" or name.strip().startswith("sbcheck."):
            times[name.strip()] = int(self_us) / 1000
            if name == " " + name.strip():  # imported by the command itself
                total += int(cumulative_us) / 1000
    return times, total, proc.stdout.strip() == "True"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=9, help="fresh processes (default 9)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    runs = [one_run() for _ in range(args.runs)]
    medians = {name: statistics.median(times.get(name, 0.0) for times, _, _ in runs)
               for name in sorted({name for times, _, _ in runs for name in times})}
    for name, ms in medians.items():
        print(f"{name:<24} {ms:8.2f} ms")
    print(f"{'sum':<24} {sum(medians.values()):8.2f} ms  (median of {args.runs} runs each)")
    total = statistics.median(total for _, total, _ in runs)
    print(f"{'cumulative':<24} {total:8.2f} ms  (the whole import, median)")
    off = {no_bytecode for _, _, no_bytecode in runs}
    print("bytecode writing:", "off (times include compiling the source)" if off == {True}
          else "on" if off == {False} else "mixed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
