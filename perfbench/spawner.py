"""Launcher of the benchmark's timed children, kept small on purpose.

Linux carries the peak RSS of the memory image a process replaces across
execve into the new program's rusage. A child spawned straight from run.py,
which holds the oracle and parsed outputs, would report at least run.py's
own peak as its ``ru_maxrss``. This process imports nothing heavy and only
spawns and waits, so the floor it hands on is a few MB, below any child.

Protocol: one JSON request per line on stdin, {"args", "log", "timeout"};
one JSON reply per line on stdout, {"wall_s", "maxrss_kb", "exit_code"}.
A child runs as ``python *args`` with stdout and stderr to ``log``, is timed
from spawn to exit, and is killed if still running after ``timeout``
seconds. All children run on one CPU, the highest this process may use.
The launcher exits at the end of its input.
"""

import json
import os
import signal
import sys
import time


def run(args: list[str], log: str, timeout: float) -> dict:
    with open(log, "wb") as out:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, out.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ, file_actions=actions)

        def kill(signum, frame):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "exit_code": os.waitstatus_to_exitcode(status)}


def main() -> None:
    # Every child runs on the same CPU, so that a command and the
    # calibration runs beside it see the same contention from other guests
    # on the host; the CPUs of a guest slow down independently.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(**json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
