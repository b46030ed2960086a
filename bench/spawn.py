"""Run one command and record its exit code, wall time and peak RSS.

    python3 bench/spawn.py RESULT TIMEOUT_S CMD [ARG...]

Linux charges a new program with the RSS of the process it was forked
from, so the benchmark starts every measured command through this small
process rather than from its own, larger one.  The peak RSS is the largest
of the command and every process it waited for (``RUSAGE_CHILDREN``).  On
timeout the command's whole process group is killed.  ``RESULT`` receives
one line: ``exit_code wall_s peak_rss_mib``.
"""

import os
import resource
import signal
import subprocess
import sys
import threading
import time


def main() -> int:
    result, timeout, cmd = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, start_new_session=True)
    # a blocking wait: Popen.wait(timeout) polls with sleeps of up to 50 ms,
    # which would show in the measured wall time
    timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    with open(result, "w") as f:
        f.write(f"{code} {wall!r} {rss!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
