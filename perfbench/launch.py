"""Run one command and write its exit code, wall time, CPU time and peak RSS.

Usage: python3 -S launch.py RESULT_JSON PROGRAM ARG...

The benchmark starts every measured command through this small process
rather than directly.  Linux carries a parent's peak RSS into a child it
spawns (the child's ``ru_maxrss`` starts at the RSS of the address space it
was forked from), so a child of the benchmark process, which holds the
generated inputs, would report that process's peak instead of its own.
This launcher has only the interpreter's baseline RSS.
"""

import json
import os
import sys
import time


def main(argv):
    result_path, command = argv[0], argv[1:]
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"exit_code": os.waitstatus_to_exitcode(status),
                   "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_bytes": usage.ru_maxrss * 1024}, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
