"""Run one command and report its own wall time, CPU time and peak RSS.

    python3 -I -S perfbench/launch.py REPORT PROGRAM [ARG...]

Linux carries a process's max-RSS across fork and exec, so every command
forked straight from the harness would report at least the harness's own
RSS.  This launcher is a bare interpreter, smaller than any ``grqn``
process, and it starts the command itself.  It writes
``wall_s cpu_s maxrss_kb`` to REPORT; the figures come from ``wait4``, so
they cover every descendant the command waited for, pool workers included.
It exits with the command's status, or 128 + N if signal N ended it.
"""

import os
import sys
import time


def main() -> int:
    report, *argv = sys.argv[1:]
    start = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - start
    with open(report, "w", encoding="utf-8") as handle:
        handle.write(f"{wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}\n")
    code = os.waitstatus_to_exitcode(status)
    return 128 - code if code < 0 else code


if __name__ == "__main__":
    sys.exit(main())
