"""Run one keenact command in a fresh process, as a user would, and record its peak RSS.

    python3 perfbench/command.py PEAK_FILE <keenact arguments>

``run.py`` starts this once per run to read the command's own peak RSS,
free of the benchmark's set-up and checks.  The peak is the process's
``VmHWM``, written to PEAK_FILE in KiB.  ``getrusage`` would not do: a
child started with ``posix_spawn`` inherits the parent's high-water mark
into its ``ru_maxrss`` when it execs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from keenact.cli import main  # noqa: E402

rc = main(sys.argv[2:])
with open("/proc/self/status", encoding="ascii") as fh:
    peak_kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
Path(sys.argv[1]).write_text(peak_kib + "\n", encoding="ascii")
sys.exit(rc)
