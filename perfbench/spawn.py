"""Spawn child processes on request and report how each one ran.

    python3 perfbench/spawn.py STDOUT-FILE STDERR-FILE

reads one command per line on stdin (arguments separated by NUL), runs it
with its stdout and stderr sent to the two files, waits for it, and writes
one line back: wall seconds, exit code, peak resident set size in KiB and
CPU seconds (user + system), the last two read from wait4.

The benchmark spawns through this small process, not directly, because
Linux carries the spawning process's peak RSS over into the child's
ru_maxrss across exec: spawned from the benchmark itself, which holds
numpy and the checked reports, every child would read as at least as
large as the benchmark. This process stays near the size of a bare
interpreter, well under any CLI run.
"""

import os
import sys
import time


def main() -> None:
    out_path, err_path = sys.argv[1], sys.argv[2]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        argv = line.rstrip("\n").split("\0")
        out_fd = os.open(out_path, flags, 0o644)
        err_fd = os.open(err_path, flags, 0o644)
        try:
            start = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
                (os.POSIX_SPAWN_DUP2, out_fd, 1),
                (os.POSIX_SPAWN_DUP2, err_fd, 2)])
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(out_fd)
            os.close(err_fd)
        sys.stdout.write(f"{wall!r} {os.waitstatus_to_exitcode(status)} "
                         f"{usage.ru_maxrss} {usage.ru_utime + usage.ru_stime!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
